"""Deterministic parallel execution layer.

PROCLUS is embarrassingly parallel at three grain sizes, and this
module provides the pieces for each without changing a single bit of
any result:

* **Restarts** — the ``restarts > 1`` fits are fanned out over a
  process pool by :func:`repro.robustness.supervisor.supervise_restarts`;
  this module provides its data plane and worker body.  The data matrix
  travels through a zero-copy shared-memory plane
  (:class:`SharedMatrix`): the parent publishes the sanitized ``X``
  once via :mod:`multiprocessing.shared_memory` and every worker
  attaches a read-only view instead of unpickling an ``(N, d)`` array
  per task.  Each task runs :func:`_restart_worker` on a
  :class:`~repro.core.config.ProclusConfig` carrying its own
  parent-spawned seed — the same :func:`repro.rng.spawn` streams the
  serial loop uses — so each restart computes the identical result in
  either mode.
* **Row chunks** — :func:`parallel_chunks` runs the chunk loops of the
  distance kernels (:func:`repro.distance.matrix.pairwise_distances`,
  :func:`repro.distance.segmental.segmental_distances_to_point`) on a
  thread pool.  Each chunk writes a disjoint output slice, numpy
  releases the GIL inside the arithmetic, and the per-chunk values are
  identical to the serial loop's, so the assembled array is too.
* **Experiment grids** — :func:`parallel_map` evaluates independent
  experiment configurations concurrently (ordered results, thread
  based: the runners close over local datasets and report objects,
  which a process pool could not pickle).

Deadline cooperation: a :class:`~repro.robustness.guards.Deadline`
cannot cross a process boundary (its epoch is a per-process
``perf_counter``), so the parent forwards the *remaining seconds* with
each restart it submits and the worker starts a fresh deadline from
that value —
workers self-terminate best-so-far exactly like an in-process fit.

``n_jobs`` semantics everywhere: ``1`` (the default) takes the exact
serial code path, ``>= 2`` uses that many workers, ``-1`` uses all
cores (``os.cpu_count()``); worker counts are additionally capped by
the number of tasks.
"""

from __future__ import annotations

import math
import os
import weakref
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - deferred heavy import
    from multiprocessing.shared_memory import SharedMemory

    from ..core.config import ProclusConfig

from ..obs import maybe_trace, monotonic_s
from ..robustness.guards import Deadline
from ..validation import check_n_jobs

__all__ = [
    "resolve_n_jobs",
    "SharedMatrix",
    "parallel_chunks",
    "parallel_map",
]


def resolve_n_jobs(n_jobs: int, n_tasks: Optional[int] = None) -> int:
    """Turn the user-facing ``n_jobs`` knob into a concrete worker count.

    ``-1`` means all cores; any other value must be ``>= 1``.  The
    result is capped at ``n_tasks`` when given — more workers than
    independent tasks only cost startup time.
    """
    n_jobs = check_n_jobs(n_jobs)
    workers = os.cpu_count() or 1 if n_jobs == -1 else n_jobs
    if n_tasks is not None:
        workers = min(workers, max(1, int(n_tasks)))
    return max(1, workers)


# ----------------------------------------------------------------------
# Shared-memory data plane
# ----------------------------------------------------------------------

#: Per-process cache of attached segments: name -> (SharedMemory, view).
#: Workers serve many restarts from one pool, so each process attaches
#: a given matrix once and reuses the view for every later task.
_ATTACHED: Dict[str, Tuple[object, np.ndarray]] = {}


class SharedMatrix:
    """A matrix published once, attached read-only by workers.

    The parent calls :meth:`publish`, ships the small :attr:`descriptor`
    dict to each task, and :meth:`unlink`\\ s the segment when the
    fan-out is done.  Workers call :meth:`attach` with the descriptor
    and get a read-only ndarray view backed by the shared pages —
    no per-task pickling of the data matrix.
    """

    def __init__(self, shm: "SharedMemory", shape: Tuple[int, ...],
                 dtype: str) -> None:
        self._shm = shm
        self.shape = tuple(int(s) for s in shape)
        self.dtype = dtype
        self._unlinked = False
        # Leak guard: /dev/shm segments outlive their creator, so a
        # parent that dies between publish() and unlink() would strand
        # the pages until reboot.  The finalizer fires on garbage
        # collection AND at interpreter exit (atexit semantics), and is
        # disarmed by an explicit unlink() so the segment is settled
        # exactly once.
        self._finalizer = weakref.finalize(
            self, _release_segment, shm)

    @classmethod
    def publish(cls, X: np.ndarray) -> "SharedMatrix":
        """Copy ``X`` into a fresh shared-memory segment.

        The segment holds ``X`` in its own (sanitized working) dtype —
        the descriptor carries the dtype string and workers attach with
        it, so a float32 fan-out ships half the shared-memory bytes of
        a float64 one.
        """
        from multiprocessing import shared_memory

        X = np.ascontiguousarray(X)
        shm = shared_memory.SharedMemory(create=True, size=max(1, X.nbytes))
        view = np.ndarray(X.shape, dtype=X.dtype, buffer=shm.buf)
        view[...] = X
        # Freeze the parent-side view: every worker sees these pages, so
        # a stray in-place write after publish would corrupt the fan-out
        # (RPR008 enforces this contract statically).
        view.flags.writeable = False
        return cls(shm, X.shape, X.dtype.str)

    @property
    def descriptor(self) -> Dict[str, object]:
        """Picklable handle a worker needs to attach: name, shape, dtype."""
        return {"name": self._shm.name, "shape": self.shape,
                "dtype": self.dtype}

    @staticmethod
    def attach(descriptor: Dict[str, object]) -> np.ndarray:
        """Worker side: a read-only view of a published matrix.

        Attachments are cached per process: one ``mmap`` per matrix,
        not per task.  Pool workers inherit the parent's resource
        tracker (its fd travels with both fork and spawn start
        methods), so the attach-side registration is an idempotent
        set-insert there and the parent's single :meth:`unlink` settles
        the segment's lifetime.
        """
        name = str(descriptor["name"])
        cached = _ATTACHED.get(name)
        if cached is not None:
            return cached[1]
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        view = np.ndarray(tuple(descriptor["shape"]),
                          dtype=np.dtype(str(descriptor["dtype"])),
                          buffer=shm.buf)
        view.flags.writeable = False
        _ATTACHED[name] = (shm, view)
        return view

    def unlink(self) -> None:
        """Release the segment (parent side, after the fan-out).

        Idempotent: a second call (or the finalizer firing after an
        explicit call) is a no-op, so supervisor retry paths can unlink
        defensively without double-free errors.
        """
        if self._unlinked:
            return
        self._unlinked = True
        self._finalizer.detach()
        _release_segment(self._shm)


def _release_segment(shm: "SharedMemory") -> None:
    """Close and unlink one segment, tolerating prior reclamation."""
    try:
        shm.close()
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


# ----------------------------------------------------------------------
# Chunked-kernel dispatcher (threads, disjoint output slices)
# ----------------------------------------------------------------------

def parallel_chunks(write_block: Callable[[int, int], None], n_rows: int, *,
                    chunk: Optional[int] = None, n_jobs: int = 1) -> None:
    """Run ``write_block(start, stop)`` over row ranges covering ``n_rows``.

    ``write_block`` must write only into its own ``[start, stop)`` slice
    of the output — the contract the memory-budgeted kernels already
    satisfy — so blocks can run on a thread pool without locking and the
    assembled result is bit-identical to the serial loop (each block
    computes the same values no matter who runs it, and every output
    cell is written exactly once).

    ``chunk=None`` with ``n_jobs=1`` makes a single call (the kernels'
    unchunked fast path).  With ``n_jobs != 1`` the range is split into
    at most ``chunk`` rows per block (when a memory budget demands it)
    and at least one block per worker.
    """
    workers = resolve_n_jobs(n_jobs, n_tasks=None)
    n_rows = int(n_rows)
    if n_rows <= 0:
        return
    if workers <= 1:
        if chunk is None:
            write_block(0, n_rows)
        else:
            for start in range(0, n_rows, chunk):
                write_block(start, min(start + chunk, n_rows))
        return
    per_worker = max(1, math.ceil(n_rows / workers))
    piece = per_worker if chunk is None else min(int(chunk), per_worker)
    starts = list(range(0, n_rows, piece))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, len(starts))) as pool:
        list(pool.map(
            lambda s: write_block(s, min(s + piece, n_rows)), starts,
        ))


# ----------------------------------------------------------------------
# Ordered map over independent configurations (experiment grids)
# ----------------------------------------------------------------------

def parallel_map(fn: Callable, items: Sequence, *, n_jobs: int = 1) -> List:
    """``[fn(x) for x in items]`` with results in input order.

    ``n_jobs=1`` is literally the list comprehension (exact serial
    path); otherwise items run on a thread pool.  Threads rather than
    processes because the experiment runners close over locally built
    datasets and report objects — unpicklable, but perfectly shareable
    within a process, and the heavy lifting inside (numpy kernels)
    releases the GIL.  Exceptions propagate to the caller exactly as in
    the serial loop.
    """
    items = list(items)
    workers = resolve_n_jobs(n_jobs, n_tasks=len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# Restart worker (processes + shared-memory plane)
# ----------------------------------------------------------------------

def _restart_worker(
    descriptor: Dict[str, object], index: int, config: "ProclusConfig",
    remaining_s: Optional[float], profile: bool = False,
) -> Tuple[int, object, List[str], float]:
    """One restart, executed in a pool worker.

    ``config`` carries the restart's own seed and ``restarts=1``.

    Imports are deferred: this module must stay importable from the
    distance layer without dragging in the core package (which imports
    the distance layer right back).

    With ``profile=True`` the worker runs its fit under a local tracer
    and ships the spans home as ``result.profile`` — the payload tuple
    shape stays fixed, so the supervisor's payload validation and the
    checkpoint format are unaffected.
    """
    from ..core.proclus import _fit

    X = SharedMatrix.attach(descriptor)
    deadline = Deadline.start(remaining_s) if remaining_s is not None else None
    notes: List[str] = []
    t0 = monotonic_s()
    with maybe_trace(profile) as tracer:
        with tracer.span("restart", index=index):
            result = _fit(X, config, deadline=deadline, notes=notes)
        if tracer.enabled:
            result.profile = tracer.profile()
    return index, result, notes, monotonic_s() - t0
