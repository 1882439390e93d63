"""The hardened PROCLUS query server.

A small threaded HTTP daemon that loads a fingerprint-validated saved
:class:`~repro.core.result.ProclusResult` and answers point-assignment
queries with the refinement-phase semantics of
:func:`repro.core.predict.predict_points`.  It exists to make the
*robustness* contracts of this repo hold under network conditions:

* **Deadlines** — every request carries a wall-clock budget (default
  from config, overridable per request via the ``X-Deadline-S`` header,
  capped by ``max_deadline_s``).  The budget covers the body read (slow
  clients are cut off with 408) and is threaded into the chunked
  predict kernel; expiry discards the partial batch and returns a typed
  504 — never a half-assigned answer.
* **Admission control** — a bounded concurrency + queue gate
  (:class:`~repro.serve.admission.AdmissionController`).  Requests past
  both limits are shed with 429 and ``Retry-After``.
* **Circuit breaking** — consecutive *untyped* kernel failures open a
  per-model :class:`~repro.serve.breaker.CircuitBreaker`; while open,
  predict requests are rejected with 503 + ``Retry-After``, and a
  single half-open probe decides recovery.
* **Typed errors, structured bodies** — malformed/oversized/NaN input
  maps to HTTP 400 with a JSON error body; an expired budget to 504; a
  draining or model-less server to 503.  A client never sees a raw
  traceback.
* **Graceful drain** — the first SIGINT/SIGTERM stops admission,
  finishes in-flight requests up to the drain budget, and exits 0; a
  second signal hard-exits 130.  Model hot-reload swaps an atomic
  pointer, so in-flight requests keep the model they started with.

``POST /predict`` takes its batch as JSON or, under ``Content-Type:
application/x-npy``, as one ``.npy`` array viewed in place
(:func:`_decode_npy`); responses are always JSON.

Every request runs under a ``serve.request`` span of the ambient
:mod:`repro.obs` tracer with ``serve.*`` counters; tracing is
observational only — served labels are bit-identical with and without
it (test-enforced).
"""

from __future__ import annotations

import io
import json
import math
import os
import signal
import socket
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union, cast

import numpy as np

from ..core.predict import normalize_dimension_sets, predict_points
from ..core.refinement import spheres_of_influence
from ..core.result import ProclusResult
from ..core.serialization import load_result_with_fingerprint
from ..exceptions import (BudgetExceededError, CheckpointError, DataError,
                          ParameterError, ReproError, ServeError)
from ..obs import get_tracer
from ..robustness.faults import ServeFaultSpec, apply_serve_fault
from ..robustness.guards import Deadline
from ..robustness.sanitize import BAD_VALUE_POLICIES
from .admission import AdmissionController
from .breaker import BREAKER_OPEN, CircuitBreaker

__all__ = ["ServerConfig", "LoadedModel", "ModelStore", "ProclusServer"]

#: Request content type of a binary query batch (see :func:`_decode_npy`).
NPY_CONTENT_TYPE = "application/x-npy"

PathLike = Union[str, Path]
_Response = Tuple[int, Dict[str, Any], Dict[str, str]]


@dataclass(frozen=True)
class ServerConfig:
    """Operational limits of one :class:`ProclusServer`.

    Attributes
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`ProclusServer.port` — chaos tests rely on this).
    max_points:
        Largest query batch accepted per request (rows).
    max_body_bytes:
        Largest request body accepted (bytes, checked against
        ``Content-Length`` before reading).
    default_deadline_s / max_deadline_s:
        Per-request wall-clock budget when the client sends none, and
        the cap on client-requested budgets (``X-Deadline-S`` header).
    header_timeout_s:
        Socket timeout while reading the request line and headers — the
        first slow-loris cutoff.
    max_concurrency / max_queue:
        Admission gate (see :mod:`repro.serve.admission`).
    breaker_threshold / breaker_reset_s:
        Circuit breaker knobs (see :mod:`repro.serve.breaker`).
    drain_s:
        Seconds the graceful drain waits for in-flight requests.
    on_bad_values:
        Default NaN/inf policy for query batches (requests may override
        per call with any policy in
        :data:`repro.robustness.sanitize.BAD_VALUE_POLICIES`).
    chunk_size / memory_budget_bytes:
        Forwarded to :func:`repro.core.predict.predict_points`.
    """

    host: str = "127.0.0.1"
    port: int = 8437
    max_points: int = 100_000
    max_body_bytes: int = 32 * 2**20
    default_deadline_s: float = 10.0
    max_deadline_s: float = 60.0
    header_timeout_s: float = 5.0
    max_concurrency: int = 4
    max_queue: int = 16
    breaker_threshold: int = 5
    breaker_reset_s: float = 30.0
    drain_s: float = 10.0
    on_bad_values: str = "raise"
    chunk_size: Optional[int] = None
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ParameterError(f"port must be in [0, 65535]; got {self.port}")
        for name in ("max_points", "max_body_bytes", "max_concurrency"):
            if int(getattr(self, name)) < 1:
                raise ParameterError(
                    f"{name} must be >= 1; got {getattr(self, name)}")
        for name in ("default_deadline_s", "max_deadline_s",
                     "header_timeout_s"):
            value = float(getattr(self, name))
            if not value > 0 or not math.isfinite(value):
                raise ParameterError(
                    f"{name} must be a positive finite number; got {value}")
        if self.default_deadline_s > self.max_deadline_s:
            raise ParameterError(
                f"default_deadline_s ({self.default_deadline_s}) exceeds "
                f"max_deadline_s ({self.max_deadline_s})")
        if self.max_queue < 0 or self.drain_s < 0:
            raise ParameterError("max_queue and drain_s must be >= 0")
        if self.on_bad_values not in BAD_VALUE_POLICIES:
            raise ParameterError(
                f"on_bad_values must be one of {BAD_VALUE_POLICIES}; "
                f"got {self.on_bad_values!r}")


@dataclass(frozen=True)
class LoadedModel:
    """An immutable, predict-ready view of one saved fit.

    Everything derived from the result (normalized dimension sets, the
    spheres of influence) is computed once here, at load time, so the
    per-request path touches only ready-made arrays.  The whole object
    is swapped atomically on reload — in-flight requests keep the
    instance they started with.
    """

    result: ProclusResult
    path: str
    fingerprint: str
    dim_sets: Tuple[Tuple[int, ...], ...]
    spheres: np.ndarray

    @property
    def d(self) -> int:
        """Fitted data dimensionality."""
        return int(self.result.medoids.shape[1])

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly identity for ``/stats`` and reload responses."""
        return {
            "path": self.path,
            "fingerprint": self.fingerprint,
            "k": self.result.k,
            "d": self.d,
            "dtype": str(self.result.medoids.dtype.name),
        }


class ModelStore:
    """Atomic-pointer holder of the currently served :class:`LoadedModel`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._model: Optional[LoadedModel] = None
        self._reloads = 0

    def load(self, path: PathLike) -> LoadedModel:
        """Load + fingerprint-verify ``path``, then swap it in atomically.

        The old model keeps serving until the new one is fully built;
        a corrupt file (:class:`~repro.exceptions.CheckpointError`)
        leaves the store untouched.
        """
        # one read supplies both the arrays and the fingerprint — two
        # reads could straddle a concurrent atomic replace and pair the
        # old model with the new file's identity
        result, fingerprint = load_result_with_fingerprint(path)
        dim_sets = tuple(normalize_dimension_sets(
            result.dimensions, result.k, int(result.medoids.shape[1])))
        spheres = spheres_of_influence(result.medoids, dim_sets)
        model = LoadedModel(result=result, path=str(path),
                            fingerprint=fingerprint, dim_sets=dim_sets,
                            spheres=spheres)
        with self._lock:
            self._model = model
            self._reloads += 1
        return model

    @property
    def current(self) -> Optional[LoadedModel]:
        """The model new requests will use (``None`` before first load)."""
        with self._lock:
            return self._model

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly store state for ``/stats``."""
        with self._lock:
            model = self._model
            return {
                "loaded": model is not None,
                "reloads": self._reloads,
                **(model.describe() if model is not None else {}),
            }


def _decode_npy(body: bytes, d: int, max_points: int) -> np.ndarray:
    """Zero-copy view of an ``application/x-npy`` query batch.

    numpy's own header reader parses the header (``literal_eval`` under a
    capped header size); the declared dtype, order, shape and byte length
    are checked against the model before the payload is viewed, so a body
    that disagrees with its header is never read.  The view is read-only.
    Every rejection is a :class:`~repro.exceptions.ParameterError`.
    """
    fp = io.BytesIO(body)
    try:
        version = np.lib.format.read_magic(fp)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"format version {version} is not 1.0 or 2.0")
        shape, fortran_order, dtype = (
            np.lib.format.read_array_header_1_0(fp) if version == (1, 0)
            else np.lib.format.read_array_header_2_0(fp))
    except ValueError as exc:
        raise ParameterError(f"malformed npy body: {exc}") from None
    if (dtype.str not in ("<f8", "<f4") or fortran_order
            or len(shape) not in (1, 2) or shape[-1] != d):
        raise ParameterError(
            f"npy body must be a C-ordered '<f8' or '<f4' array of shape "
            f"(n, {d}) or ({d},); got descr {dtype.str!r}, fortran_order="
            f"{fortran_order}, shape {shape}")
    n = shape[0] if len(shape) == 2 else 1
    if n > max_points:
        raise ParameterError(
            f"query batch has {n} points; at most {max_points} are "
            "accepted per request")
    offset = fp.tell()
    if len(body) - offset != n * d * dtype.itemsize:
        raise ParameterError(
            f"npy body carries {len(body) - offset} data bytes; its header "
            f"declares {n * d * dtype.itemsize}")
    return np.frombuffer(body, dtype, offset=offset).reshape(n, d)


def _error_payload(kind: str, message: str) -> Dict[str, Any]:
    """The structured error body every non-2xx response carries."""
    return {"error": {"type": kind, "message": message}}


class _ServeHTTPServer(ThreadingHTTPServer):
    """Thread-per-request server carrying a back-pointer to the app."""

    daemon_threads = True
    allow_reuse_address = True
    app: "ProclusServer"


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin shim: all logic lives on :class:`ProclusServer`."""

    server_version = "proclus-serve/1.0"
    protocol_version = "HTTP/1.0"

    def do_GET(self) -> None:
        cast(_ServeHTTPServer, self.server).app.dispatch(self, "GET")

    def do_POST(self) -> None:
        cast(_ServeHTTPServer, self.server).app.dispatch(self, "POST")

    def log_message(self, format: str, *args: Any) -> None:
        # request logging is the tracer's job; stderr chatter would race
        # with the CLI's own output
        return


class ProclusServer:
    """The hardened query server (see module docstring for guarantees).

    Parameters
    ----------
    config:
        Operational limits; ``None`` uses :class:`ServerConfig` defaults.
    model_path:
        Saved result to load before serving; ``None`` starts model-less
        (``/readyz`` reports 503 until ``/reload``).
    fault:
        Optional :class:`~repro.robustness.faults.ServeFaultSpec` the
        chaos suite injects into the predict path.
    """

    def __init__(self, config: Optional[ServerConfig] = None, *,
                 model_path: Optional[PathLike] = None,
                 fault: Optional[ServeFaultSpec] = None) -> None:
        self.config = config if config is not None else ServerConfig()
        self.store = ModelStore()
        self.admission = AdmissionController(self.config.max_concurrency,
                                             self.config.max_queue)
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_after_s=self.config.breaker_reset_s)
        self._fault = fault
        self._ordinal_lock = threading.Lock()
        self._ordinal = 0
        self._draining = threading.Event()
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._httpd: Optional[_ServeHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        if model_path is not None:
            self.store.load(model_path)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ProclusServer":
        """Bind the socket and serve in a daemon thread; returns self."""
        if self._httpd is not None:
            raise ServeError("server is already running")
        handler = type("_BoundHandler", (_RequestHandler,),
                       {"timeout": self.config.header_timeout_s})
        self._httpd = _ServeHTTPServer(
            (self.config.host, self.config.port), handler)
        self._httpd.app = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="proclus-serve", daemon=True)
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral pick)."""
        if self._httpd is None:
            raise ServeError("server is not running")
        return int(self._httpd.server_address[1])

    def initiate_drain(self) -> None:
        """Stop admitting new predict work; in-flight requests continue."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        """Has a drain been initiated?"""
        return self._draining.is_set()

    def drain_and_stop(self, drain_s: Optional[float] = None) -> bool:
        """Drain in-flight work, then shut the listener down.

        Returns ``True`` for a clean drain (no request still in flight
        when the budget expired).  Safe to call more than once.
        """
        self._draining.set()
        budget = self.config.drain_s if drain_s is None else drain_s
        drained = self.admission.wait_idle(budget)
        httpd, thread = self._httpd, self._thread
        self._httpd, self._thread = None, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)
        return drained

    def run(self) -> int:
        """Blocking foreground entry point with the signal contract.

        First SIGINT/SIGTERM: stop admission, drain in-flight requests
        up to the drain budget, exit 0 (1 if the drain budget expired
        with work still in flight).  Second signal: hard exit 130.
        """
        stop = threading.Event()
        seen = {"signals": 0}

        def _on_signal(signum: int, frame: Any) -> None:
            seen["signals"] += 1
            if seen["signals"] >= 2:
                os._exit(130)
            self._draining.set()
            stop.set()

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _on_signal)
        try:
            self.start()
            print(f"listening on http://{self.config.host}:{self.port}",
                  flush=True)
            stop.wait()
            drained = self.drain_and_stop()
            print("drained cleanly" if drained
                  else "drain budget expired with requests in flight",
                  flush=True)
            return 0 if drained else 1
        finally:
            for sig, old_handler in previous.items():
                signal.signal(sig, old_handler)

    # -- request handling ----------------------------------------------

    def dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        """Route one request and send its JSON response.

        The catch-all exists to uphold the structured-body contract:
        whatever goes wrong, the client receives JSON, not a traceback.
        """
        path = handler.path.split("?", 1)[0]
        self._count("requests")
        tracer = get_tracer()
        with tracer.span("serve.request", method=method, path=path) as span:
            try:
                status, payload, headers = self._route(handler, method, path)
            except Exception as exc:  # noqa: BLE001 - structured-500 backstop
                self._count("internal_errors")
                status, payload, headers = 500, _error_payload(
                    "internal", f"unhandled server error: {exc}"), {}
            span.set(status=status)
            self._send_json(handler, status, payload, headers)

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` document (counters + component snapshots)."""
        with self._stats_lock:
            counters = dict(self._counters)
        return {
            "counters": counters,
            "admission": self.admission.snapshot(),
            "breaker": self.breaker.snapshot(),
            "model": self.store.snapshot(),
            "draining": self._draining.is_set(),
        }

    def set_fault(self, fault: Optional[ServeFaultSpec]) -> None:
        """Install/clear an injected kernel fault (chaos tests only)."""
        self._fault = fault

    # ------------------------------------------------------------------

    def _route(self, handler: BaseHTTPRequestHandler, method: str,
               path: str) -> _Response:
        if method == "GET":
            if path == "/healthz":
                return 200, {"status": "ok",
                             "draining": self._draining.is_set()}, {}
            if path == "/readyz":
                return self._readyz()
            if path == "/stats":
                return 200, self.stats(), {}
            return 404, _error_payload("not_found", f"no route {path}"), {}
        if method == "POST":
            if path == "/predict":
                return self._predict(handler)
            if path == "/reload":
                return self._reload(handler)
            return 404, _error_payload("not_found", f"no route {path}"), {}
        return 405, _error_payload("method_not_allowed", method), {}

    def _readyz(self) -> _Response:
        if self._draining.is_set():
            return 503, {"ready": False, "reason": "draining"}, {}
        if self.store.current is None:
            return 503, {"ready": False, "reason": "no_model"}, {}
        if self.breaker.state == BREAKER_OPEN:
            return 503, {"ready": False, "reason": "circuit_open"}, {
                "Retry-After": self._retry_after_header()}
        return 200, {"ready": True}, {}

    def _predict(self, handler: BaseHTTPRequestHandler) -> _Response:
        cfg = self.config
        if self._draining.is_set():
            self._count("rejected_draining")
            return 503, _error_payload(
                "draining", "server is draining; no new work accepted"), {
                "Retry-After": "1"}
        model = self.store.current
        if model is None:
            return 503, _error_payload(
                "no_model", "no model is loaded; POST /reload first"), {}

        try:
            deadline = self._request_deadline(handler)
            body = self._read_body(handler, deadline)
        except (socket.timeout, TimeoutError, BudgetExceededError):
            self._count("read_timeouts")
            return 408, _error_payload(
                "request_timeout",
                "request body arrived too slowly for its deadline"), {}
        except (ParameterError, DataError) as exc:
            self._count("invalid_requests")
            return 400, _error_payload("invalid_request", str(exc)), {}
        points: Any
        if handler.headers.get_content_type() == NPY_CONTENT_TYPE:
            self._count("npy_requests")
            try:
                points = _decode_npy(body, model.d, cfg.max_points)
            except ParameterError as exc:
                self._count("invalid_requests")
                return 400, _error_payload("invalid_request", str(exc)), {}
            on_bad = handler.headers.get("X-On-Bad-Values", cfg.on_bad_values)
        else:
            try:
                obj = json.loads(body)
            except ValueError:
                self._count("invalid_requests")
                return 400, _error_payload(
                    "invalid_json", "request body is not valid JSON"), {}
            if not isinstance(obj, dict) or "points" not in obj:
                self._count("invalid_requests")
                return 400, _error_payload(
                    "invalid_request",
                    'body must be a JSON object with a "points" array'), {}
            points = obj["points"]
            on_bad = obj.get("on_bad_values", cfg.on_bad_values)
        if on_bad not in BAD_VALUE_POLICIES:
            self._count("invalid_requests")
            return 400, _error_payload(
                "invalid_request",
                f"on_bad_values must be one of {BAD_VALUE_POLICIES}; "
                f"got {on_bad!r}"), {}

        if not self.admission.acquire(deadline.remaining()):
            self._count("shed")
            return 429, _error_payload(
                "overloaded",
                "admission queue is full; retry after the backlog "
                "clears"), {"Retry-After": "1"}
        try:
            if not self.breaker.allow():
                self._count("breaker_rejections")
                return 503, _error_payload(
                    "circuit_open",
                    "predict kernel circuit breaker is open"), {
                    "Retry-After": self._retry_after_header()}
            ordinal = self._next_ordinal()
            # every admitted call must resolve the breaker's half-open
            # probe: success/failure where the kernel gave a verdict,
            # abandon_probe when a typed error (deadline, bad batch)
            # ended the call before the kernel's health was exercised —
            # otherwise the probe slot leaks and the circuit would stay
            # HALF_OPEN, rejecting everything, until restart
            verdict_recorded = False
            try:
                try:
                    apply_serve_fault(self._fault, ordinal)
                    deadline.check("predict request")
                    report = predict_points(
                        points, model.result.medoids, model.dim_sets,
                        spheres=model.spheres, on_bad_values=on_bad,
                        max_points=cfg.max_points, chunk_size=cfg.chunk_size,
                        memory_budget_bytes=cfg.memory_budget_bytes,
                        deadline=deadline)
                except BudgetExceededError as exc:
                    self._count("deadline_exceeded")
                    return 504, _error_payload(
                        "deadline_exceeded", str(exc)), {}
                except (ParameterError, DataError) as exc:
                    self._count("invalid_requests")
                    return 400, _error_payload("invalid_request", str(exc)), {}
                except ReproError as exc:
                    # typed but unexpected here — still not a kernel failure
                    self._count("invalid_requests")
                    return 400, _error_payload(type(exc).__name__,
                                               str(exc)), {}
                except Exception as exc:  # noqa: BLE001 - breaker accounting
                    self.breaker.record_failure()
                    verdict_recorded = True
                    self._count("kernel_failures")
                    return 500, _error_payload(
                        "internal", f"predict kernel failed: {exc}"), {}
                self.breaker.record_success()
                verdict_recorded = True
            finally:
                if not verdict_recorded:
                    self.breaker.abandon_probe()
            self._count("predictions")
            tracer = get_tracer()
            if tracer.enabled:
                tracer.count("serve.predicted_points", report.n_points)
            payload = report.to_dict()
            payload["model"] = {"fingerprint": model.fingerprint}
            return 200, payload, {}
        finally:
            self.admission.release()

    def _reload(self, handler: BaseHTTPRequestHandler) -> _Response:
        deadline = Deadline.start(self.config.default_deadline_s)
        try:
            body = self._read_body(handler, deadline)
            obj = json.loads(body) if body else {}
        except (socket.timeout, TimeoutError, BudgetExceededError):
            self._count("read_timeouts")
            return 408, _error_payload(
                "request_timeout", "reload body arrived too slowly"), {}
        except (ParameterError, ValueError) as exc:
            return 400, _error_payload("invalid_request", str(exc)), {}
        current = self.store.current
        path = obj.get("path") if isinstance(obj, dict) else None
        if path is None and current is not None:
            path = current.path
        if not isinstance(path, str) or not path:
            return 400, _error_payload(
                "invalid_request",
                'reload needs a "path" (no model loaded to re-read)'), {}
        try:
            model = self.store.load(path)
        except (CheckpointError, DataError, ParameterError, OSError) as exc:
            self._count("reload_failures")
            return 400, _error_payload(
                "bad_model", f"reload rejected: {exc}"), {}
        self._count("reloads")
        return 200, {"reloaded": True, **model.describe()}, {}

    # ------------------------------------------------------------------

    def _request_deadline(self, handler: BaseHTTPRequestHandler) -> Deadline:
        raw = handler.headers.get("X-Deadline-S")
        if raw is None:
            return Deadline.start(self.config.default_deadline_s)
        try:
            budget = float(raw)
        except ValueError:
            raise ParameterError(
                f"X-Deadline-S must be a positive number; got {raw!r}")
        if not budget > 0 or not math.isfinite(budget):
            raise ParameterError(
                f"X-Deadline-S must be a positive finite number; got {raw!r}")
        return Deadline.start(min(budget, self.config.max_deadline_s))

    def _read_body(self, handler: BaseHTTPRequestHandler,
                   deadline: Deadline) -> bytes:
        raw_length = handler.headers.get("Content-Length")
        if raw_length is None:
            raise ParameterError("Content-Length header is required")
        try:
            length = int(raw_length)
        except ValueError:
            raise ParameterError(
                f"Content-Length must be an integer; got {raw_length!r}")
        if length < 0:
            raise ParameterError(f"Content-Length must be >= 0; got {length}")
        if length > self.config.max_body_bytes:
            raise ParameterError(
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit")
        data = bytearray()
        try:
            while len(data) < length:
                remaining_s = deadline.remaining()
                if remaining_s <= 0:
                    raise BudgetExceededError(
                        "request deadline expired while reading the body")
                # per-read socket timeout: a dribbling client cannot hold
                # the thread past its own deadline
                handler.connection.settimeout(remaining_s)
                chunk = handler.rfile.read(min(65536, length - len(data)))
                if not chunk:
                    raise ParameterError(
                        f"request body truncated at {len(data)} of {length} "
                        "bytes")
                data.extend(chunk)
        finally:
            # the response write must not inherit whatever sliver of
            # deadline the last body read left on the socket
            try:
                handler.connection.settimeout(self.config.header_timeout_s)
            except OSError:
                pass
        return bytes(data)

    def _retry_after_header(self) -> str:
        return str(max(1, int(math.ceil(self.breaker.retry_after_s()))))

    def _next_ordinal(self) -> int:
        with self._ordinal_lock:
            ordinal = self._ordinal
            self._ordinal += 1
            return ordinal

    def _count(self, name: str) -> None:
        with self._stats_lock:
            self._counters[name] = self._counters.get(name, 0) + 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count(f"serve.{name}")

    def _send_json(self, handler: BaseHTTPRequestHandler, status: int,
                   payload: Dict[str, Any],
                   headers: Dict[str, str]) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", "application/json")
            handler.send_header("Content-Length", str(len(body)))
            for key, value in headers.items():
                handler.send_header(key, value)
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, socket.timeout,
                TimeoutError, OSError):
            # the client gave up; nothing useful left to do with the socket
            self._count("client_disconnects")
