"""Layer tracing from outside the program: wrap, record, restore.

The benchmark never edits ``src/``.  For a traced run it replaces the
public functions of each layer *where the calling module binds them*
(``repro.core.iterative.assign_points``, ``check_array`` at each of its
import sites, ...) with thin wrappers that record one span per call:
``(name, start, end, parent)`` on ``time.perf_counter`` (the system-wide
monotonic clock on Linux, so spans from forked pool workers line up with
the parent's).  Spans stay in memory; worker processes write theirs to
one file each when their restart returns.  :meth:`Tracer.uninstall`
puts every original object back.

Modules are resolved through ``sys.modules``: attribute access on the
package does not work, because ``repro.core.proclus`` is the *function*
``proclus`` re-exported by ``repro.core``, not the module.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Modules imported before wrapping, so lazily imported layers
#: (supervisor, pool workers, serving) are bound when the wrappers go in.
PRELOAD = (
    "repro",
    "repro.core.proclus",
    "repro.perf.parallel",
    "repro.robustness.supervisor",
    "repro.serve.server",
    "repro.serve.client",
)

#: (defining module, function, span name).  Every binding of the function
#: in any loaded ``repro`` module is wrapped, so each import site counts.
FUNCTION_LAYERS = (
    ("repro.validation", "check_array", "validation.check_array"),
    ("repro.core.initialization", "initialize_medoid_pool",
     "core.initialization"),
    ("repro.core.iterative", "run_iterative_phase", "core.iterative"),
    ("repro.core.dimensions", "compute_localities",
     "core.dimensions.localities"),
    ("repro.core.dimensions", "find_dimensions", "core.dimensions.find"),
    ("repro.core.dimensions", "find_dimensions_from_clusters",
     "core.dimensions.from_clusters"),
    ("repro.core.assignment", "assign_points", "core.assignment"),
    ("repro.core.assignment", "segmental_distance_matrix",
     "core.assignment.matrix"),
    ("repro.core.objective", "evaluate_clusters", "core.objective"),
    ("repro.core.refinement", "refine_clusters", "core.refinement"),
    ("repro.perf.kernels", "segmental_columns",
     "perf.kernels.segmental_columns"),
    ("repro.distance.matrix", "cross_distances",
     "distance.matrix.cross_distances"),
    ("repro.core.predict", "predict_points", "core.predict"),
    ("repro.robustness.supervisor", "supervise_restarts",
     "robustness.supervisor"),
    ("repro.robustness.supervisor", "_terminate_pool",
     "robustness.supervisor.shutdown"),
    ("repro.perf.parallel", "_restart_worker", "perf.parallel.restart"),
)

#: (module, class, method, span name) for layers reached through a method.
METHOD_LAYERS = (
    ("repro.perf.parallel", "SharedMatrix", "publish",
     "perf.parallel.publish"),
    ("repro.serve.admission", "AdmissionController", "acquire",
     "serve.admission"),
)

#: Serve modules whose bound ``json`` is swapped for a timing proxy:
#: module -> span prefix for ``dumps`` (encode) and ``loads`` (decode).
JSON_LAYERS = (
    ("repro.serve.server", "serve.server"),
    ("repro.serve.client", "serve.client"),
)

#: Span whose calls run in a pool worker; it flushes the worker's spans.
WORKER_SPAN = "perf.parallel.restart"


def _rows_and_bytes(args: tuple, result: Any) -> Dict[str, float]:
    """Work counts of a distance kernel, from its arguments and output."""
    n, k = result.shape
    counts = {"rows": float(n * k)}
    if len(args) >= 3:  # segmental_columns(X, medoids, dim_sets)
        width = sum(len(d) for d in args[2]) + k
        counts["bytes_computed"] = float(n * width * result.dtype.itemsize)
    return counts


#: Per-call counters derived from a call's arguments and result.
COUNTERS: Dict[str, Callable[[tuple, Any], Dict[str, float]]] = {
    "perf.kernels.segmental_columns": _rows_and_bytes,
    "distance.matrix.cross_distances": _rows_and_bytes,
    "core.predict": lambda args, result: {"points": float(result.n_points)},
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    A span is a list ``[name, start, end, parent, counts]`` where
    ``parent`` indexes the enclosing span of the same thread (``None``
    at the top) and ``counts`` holds the span's work counters.
    """

    def __init__(self, worker_dir: Optional[str] = None) -> None:
        self.worker_dir = worker_dir
        self.spans: List[list] = []
        self._owner = os.getpid()
        self._pid = self._owner
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._undone: List[Tuple[Any, str, Any]] = []
        self._flushes = 0

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            # first span in a forked worker: drop the parent's copy
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
            self._lock = threading.Lock()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, {}])
        stack.append(index)
        return index

    def end(self, index: int, counts: Optional[Dict[str, float]] = None) -> None:
        """Close span ``index`` (the calling thread's innermost)."""
        span = self.spans[index]
        span[2] = time.perf_counter()
        if counts:
            span[4] = counts
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def take(self) -> List[list]:
        """Return the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _flush_worker(self) -> None:
        """Write a pool worker's spans to their own file in ``worker_dir``."""
        if self.worker_dir is None:
            return
        self._flushes += 1
        path = os.path.join(self.worker_dir,
                            f"worker-{os.getpid()}-{self._flushes}.json")
        with open(path, "w") as fh:
            json.dump(self.take(), fh)

    # -- wrapping -------------------------------------------------------
    def _wrapper(self, original: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)
        worker = name == WORKER_SPAN

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.end(index, counter(args, result)
                         if counter is not None and result is not None
                         else None)
                if worker and os.getpid() != self._owner:
                    self._flush_worker()

        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, _current(owner, attr), new))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer at every binding in the loaded repro modules."""
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        for name in PRELOAD:
            importlib.import_module(name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "repro"
                                         or key.startswith("repro."))]
        for mod_name, func_name, span in FUNCTION_LAYERS:
            original = getattr(sys.modules[mod_name], func_name)
            wrapper = self._wrapper(original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for mod_name, cls_name, meth, span in METHOD_LAYERS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new: Any = classmethod(self._wrapper(raw.__func__, span))
            else:
                new = self._wrapper(raw, span)
            self._patch(cls, meth, new)
        for mod_name, prefix in JSON_LAYERS:
            module = sys.modules[mod_name]
            self._patch(module, "json", _JsonProxy(self, module.json, prefix))

    def uninstall(self) -> None:
        """Put every original object back, last patch first."""
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)
            self._undone.append((owner, attr, original))

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original object again."""
        return not self._patches and all(
            _current(owner, attr) is original
            for owner, attr, original in self._undone)

    def patched_attributes(self) -> List[Tuple[Any, str, Any, Any]]:
        """``(owner, attr, original, wrapper)`` for every installed patch."""
        return list(self._patches)


def _current(owner: Any, attr: str) -> Any:
    """The object bound at ``owner.attr`` (a class's own, undecorated entry)."""
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class _JsonProxy:
    """Stands in for a module's ``json``: times ``dumps`` and ``loads``.

    ``dumps`` is the module's encode stage and records the encoded size
    as ``bytes``; ``loads`` is its decode stage.  Everything else is the
    real :mod:`json`.
    """

    def __init__(self, tracer: Tracer, real: Any, prefix: str) -> None:
        self._tracer = tracer
        self._real = real
        self._encode = prefix + ".encode"
        self._decode = prefix + ".decode"

    def dumps(self, obj: Any, *args: Any, **kwargs: Any) -> str:
        index = self._tracer.begin(self._encode)
        text = None
        try:
            text = self._real.dumps(obj, *args, **kwargs)
            return text
        finally:
            self._tracer.end(index, None if text is None
                             else {"bytes": float(len(text))})

    def loads(self, data: Any, *args: Any, **kwargs: Any) -> Any:
        index = self._tracer.begin(self._decode)
        try:
            return self._real.loads(data, *args, **kwargs)
        finally:
            self._tracer.end(index)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def load_worker_spans(directory: str) -> List[List[list]]:
    """Span lists written by pool workers, one list per flush (then deleted)."""
    out = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("worker-") and entry.endswith(".json"):
            path = os.path.join(directory, entry)
            with open(path) as fh:
                out.append(json.load(fh))
            os.remove(path)
    return out


def merge(spans: List[list], worker_lists: Iterable[List[list]],
          parents: Tuple[str, ...]) -> List[list]:
    """Append other processes' spans, re-indexed, under the span enclosing them.

    A top-level span of another process (a pool worker, the server) is
    parented to the span of ``spans`` named in ``parents`` whose interval
    contains its start; those spans must not overlap one another (one
    supervisor per fit, one round trip at a time).
    """
    merged = [list(s) for s in spans]
    hosts = sorted((s[1], s[2], i) for i, s in enumerate(spans)
                   if s[0] in parents and s[2] is not None)
    starts = [h[0] for h in hosts]
    for wspans in worker_lists:
        base = len(merged)
        for name, start, end, parent, counts in wspans:
            if parent is None:
                at = bisect.bisect_right(starts, start) - 1
                if at >= 0 and start <= hosts[at][1]:
                    parent = hosts[at][2]
            else:
                parent += base
            merged.append([name, start, end, parent, counts])
    return merged


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the union of its direct children's."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - union_length(children.get(i, ()))
            for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: List[list],
              keep: Optional[Callable[[list], bool]] = None,
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds, summed counters.

    Self times are taken over the whole list; ``keep`` then selects the
    spans that are counted (e.g. those of one serve phase).
    """
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        if keep is not None and not keep(span):
            continue
        name, start, end, _, counts = span
        row = out.setdefault(name, {"calls": 0.0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        for key, value in counts.items():
            row[key] = row.get(key, 0.0) + value
    return out


def coverage(spans: List[list], start: float, end: float,
             waits: Tuple[str, ...] = ("robustness.supervisor",)) -> float:
    """Share of ``[start, end]`` covered by layer spans doing work.

    Spans named in ``waits`` only wait for others (the supervisor waits
    for its pool workers) and do not count; the workers' own spans do.
    """
    covered = union_length(
        (max(s, start), min(e, end)) for name, s, e, _, _ in spans
        if name not in waits and e > start and s < end)
    return covered / (end - start)
