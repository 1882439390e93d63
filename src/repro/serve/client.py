"""Retrying HTTP client for the PROCLUS query server.

The server side sheds load (429), breaks circuits (503), and enforces
deadlines (504) — behaviour that only pays off when clients react
correctly.  This client encodes the well-behaved reaction:

* **Retry only what the server says is retryable** — 429 and 503
  responses and transport-level connection failures.  Validation
  errors (400) raise :class:`~repro.exceptions.ParameterError`
  immediately, deadline failures (408/504)
  :class:`~repro.exceptions.BudgetExceededError`, and server-internal
  500s :class:`~repro.exceptions.ServeError` — repeating any of those
  verbatim would just reproduce the failure.
* **Jittered exponential backoff** — doubling waits with multiplicative
  jitter so a fleet of clients does not re-dogpile a recovering server
  in lockstep.  Jitter comes from a seeded
  :func:`repro.rng.ensure_rng` generator (the library bans global-state
  RNG everywhere, clients included), so tests are reproducible.
* **``Retry-After`` is honoured** — the server's hint (breaker reset
  remaining, shed backoff) overrides a shorter computed backoff.
* **A total deadline caps everything** — retries never extend past
  :attr:`RetryPolicy.total_deadline_s`; when the next backoff would
  cross it, the client gives up with a typed
  :class:`~repro.exceptions.ServeError`.
"""

from __future__ import annotations

import http.client
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..dtypes import as_working
from ..exceptions import BudgetExceededError, ParameterError, ServeError
from ..rng import SeedLike, ensure_rng
from ..robustness.guards import Deadline
from .server import NPY_CONTENT_TYPE

__all__ = ["RetryPolicy", "PredictClient"]

_JSON = "application/json"

#: Statuses worth repeating: transient overload/unavailability signals.
_RETRYABLE_STATUSES = (429, 502, 503)


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently the client repeats retryable failures.

    ``total_deadline_s=None`` means no overall cap (per-attempt socket
    timeouts still apply); retries stop after ``max_attempts`` either
    way.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter_fraction: float = 0.5
    total_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1; got {self.max_attempts}")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ParameterError("backoff seconds must be >= 0")
        if not 0 <= self.jitter_fraction <= 1:
            raise ParameterError(
                f"jitter_fraction must lie in [0, 1]; got "
                f"{self.jitter_fraction}")
        if self.total_deadline_s is not None and self.total_deadline_s <= 0:
            raise ParameterError(
                f"total_deadline_s must be positive; got "
                f"{self.total_deadline_s}")


class PredictClient:
    """Typed client for :class:`~repro.serve.server.ProclusServer`.

    Parameters
    ----------
    host / port:
        Server address.
    policy:
        Retry behaviour; ``None`` uses :class:`RetryPolicy` defaults.
    request_timeout_s:
        Per-attempt socket timeout (connect + response).
    seed:
        Seed for backoff jitter (tests pin it for reproducible timing).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8437, *,
                 policy: Optional[RetryPolicy] = None,
                 request_timeout_s: float = 10.0,
                 seed: SeedLike = None) -> None:
        if request_timeout_s <= 0:
            raise ParameterError(
                f"request_timeout_s must be positive; got "
                f"{request_timeout_s}")
        self.host = host
        self.port = int(port)
        self.policy = policy if policy is not None else RetryPolicy()
        self.request_timeout_s = float(request_timeout_s)
        self._rng = ensure_rng(seed)

    # -- endpoints -----------------------------------------------------

    def predict(self, points: Any, *, deadline_s: Optional[float] = None,
                on_bad_values: Optional[str] = None) -> Dict[str, Any]:
        """POST a query batch; returns the parsed success body.

        ``deadline_s`` becomes the server-side ``X-Deadline-S`` budget;
        ``on_bad_values`` overrides the server's NaN/inf policy for
        this batch.  Labels come back under ``"labels"``.

        The batch travels as one ``application/x-npy`` array: float32
        and float64 input as it is, anything else cast to float64.
        Input that is not numeric raises
        :class:`~repro.exceptions.ParameterError` before any request.
        """
        try:
            arr = as_working(points)
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                f"query batch is not numeric matrix data: {exc}") from None
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.ascontiguousarray(arr),
                                  allow_pickle=False)
        headers: Dict[str, str] = {}
        if deadline_s is not None:
            headers["X-Deadline-S"] = f"{float(deadline_s):g}"
        if on_bad_values is not None:
            headers["X-On-Bad-Values"] = on_bad_values
        return self._request("POST", "/predict", buf.getvalue(),
                             NPY_CONTENT_TYPE, headers)

    def reload(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Hot-swap the served model (server re-reads its current path
        when ``path`` is ``None``)."""
        body: Dict[str, Any] = {} if path is None else {"path": str(path)}
        return self._request("POST", "/reload",
                             json.dumps(body).encode("utf-8"))

    def healthz(self) -> Dict[str, Any]:
        """Liveness document (200 even while draining)."""
        return self._request("GET", "/healthz")

    def ready(self) -> bool:
        """True when the server would accept a predict right now."""
        try:
            status, _, _ = self._once("GET", "/readyz", None, _JSON, {},
                                      self.request_timeout_s)
        except (OSError, http.client.HTTPException):
            return False
        return status == 200

    def stats(self) -> Dict[str, Any]:
        """The server's counter/breaker/admission snapshot."""
        return self._request("GET", "/stats")

    # -- machinery -----------------------------------------------------

    def _once(self, method: str, path: str, body: Optional[bytes],
              content_type: str, headers: Dict[str, str],
              timeout_s: float) -> Tuple[int, Dict[str, str], Any]:
        """One HTTP attempt; returns (status, headers, parsed body)."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=timeout_s)
        try:
            send_headers = dict(headers)
            send_headers["Content-Type"] = content_type
            conn.request(method, path, body=body, headers=send_headers)
            resp = conn.getresponse()
            raw = resp.read()
            try:
                obj = json.loads(raw) if raw else {}
            except ValueError:
                obj = {"error": {"type": "non_json",
                                 "message": raw[:200].decode("utf-8",
                                                             "replace")}}
            resp_headers = {k: v for k, v in resp.getheaders()}
            return resp.status, resp_headers, obj
        finally:
            conn.close()

    def _request(self, method: str, path: str, body: Optional[bytes] = None,
                 content_type: str = _JSON,
                 headers: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
        policy = self.policy
        deadline = Deadline.start(policy.total_deadline_s)
        last_failure = "no attempt made"
        for attempt in range(1, policy.max_attempts + 1):
            timeout_s = self.request_timeout_s
            remaining = deadline.remaining()
            if math.isfinite(remaining):
                if remaining <= 0:
                    break
                timeout_s = min(timeout_s, remaining)
            retry_after = 0.0
            try:
                status, resp_headers, obj = self._once(
                    method, path, body, content_type, headers or {},
                    timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                # HTTPException covers garbled/truncated responses
                # (BadStatusLine, IncompleteRead) that are not OSErrors;
                # both are transport failures, so both retry
                last_failure = f"connection failed: {exc}"
            else:
                if status < 300:
                    # a success body is a JSON object; anything else is a
                    # broken server, and repeating the request will not
                    # mend it
                    if isinstance(obj, dict) and "error" not in obj:
                        return obj
                    raise ServeError(
                        f"server returned {status} for {method} {path} "
                        f"without a JSON object body: "
                        f"{self._error_message(obj, status)}")
                message = self._error_message(obj, status)
                if status == 400:
                    raise ParameterError(message)
                if status in (408, 504):
                    raise BudgetExceededError(message)
                if status not in _RETRYABLE_STATUSES:
                    raise ServeError(
                        f"server returned {status} for {method} {path}: "
                        f"{message}")
                last_failure = f"{status}: {message}"
                try:
                    retry_after = float(resp_headers.get("Retry-After", "0"))
                except ValueError:
                    retry_after = 0.0
            if attempt >= policy.max_attempts:
                break
            backoff = min(policy.max_backoff_s,
                          policy.base_backoff_s * 2.0 ** (attempt - 1))
            backoff *= 1.0 + policy.jitter_fraction * float(
                self._rng.random())
            backoff = max(backoff, retry_after)
            if backoff >= deadline.remaining():
                raise ServeError(
                    f"{method} {path} gave up: total deadline of "
                    f"{policy.total_deadline_s:g}s would expire during "
                    f"backoff (last failure: {last_failure})")
            time.sleep(backoff)
        raise ServeError(
            f"{method} {path} failed after {policy.max_attempts} "
            f"attempt(s); last failure: {last_failure}")

    @staticmethod
    def _error_message(obj: Any, status: int) -> str:
        error = obj.get("error") if isinstance(obj, dict) else None
        if isinstance(error, dict):
            return f"[{error.get('type', 'error')}] {error.get('message', '')}"
        return f"HTTP {status}"
