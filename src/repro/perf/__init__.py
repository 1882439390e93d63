"""Performance layer: hot-path caches and batched kernels.

The iterative phase (paper §2.2) re-evaluates a full vertex — medoid
distances, localities, dimension statistics, segmental assignment —
on every hill-climbing step, even though a step changes only the bad
medoids (typically 1–2 of ``k``).  This package holds the machinery
that exploits that incrementality without changing a single bit of the
output:

* :mod:`repro.perf.kernels` — a vectorised multi-medoid Manhattan
  segmental kernel (single gather + ``np.add.reduceat`` over a
  concatenated dims layout) replacing per-medoid Python loops;
* :mod:`repro.perf.cache` — :class:`IterativeCache`, a byte-bounded
  LRU cache of per-medoid distance columns, segmental columns, and
  locality statistics, keyed by medoid row index (and dimension set)
  so only the columns of swapped medoids are recomputed;
* :mod:`repro.perf.parallel` — the deterministic parallel execution
  layer: the shared-memory data plane and worker of the restart fan-out,
  a thread dispatcher for the chunked distance kernels, and an ordered
  :func:`~repro.perf.parallel.parallel_map` for experiment grids, all
  behind an ``n_jobs`` knob whose default (``1``) is the exact serial
  code path.

Everything here is exact: cached and uncached paths produce
bit-identical results (enforced by the tier-1 property suite), and so
do serial and parallel ones.
"""

from __future__ import annotations

from .cache import CacheStats, IterativeCache
from .kernels import build_dims_layout, segmental_columns
from .parallel import (
    SharedMatrix,
    parallel_chunks,
    parallel_map,
    resolve_n_jobs,
)

__all__ = [
    "IterativeCache",
    "CacheStats",
    "segmental_columns",
    "build_dims_layout",
    "SharedMatrix",
    "parallel_chunks",
    "parallel_map",
    "resolve_n_jobs",
]
