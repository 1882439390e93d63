"""PROCLUS configuration.

The paper exposes two user parameters — the number of clusters ``k`` and
the average cluster dimensionality ``l`` — plus several internal
constants it names but does not fix numerically.  All of them live here
with documented defaults:

* ``sample_factor`` (the paper's ``A``): the initialization phase samples
  ``A*k`` points.
* ``pool_factor`` (the paper's ``B``, "a small constant"): the greedy
  technique reduces the sample to a candidate pool of ``B*k`` medoids.
* ``min_deviation``: clusters smaller than ``N/k * min_deviation`` mark
  their medoid bad (paper: "in most experiments, we choose 0.1").
* ``max_bad_tries``: the hill climbing stops after this many consecutive
  vertices that fail to improve the best objective (the paper's
  "certain number of vertices").

:class:`ProclusConfig` is the one carrier of fit parameters below the
public :func:`~repro.core.proclus.proclus` boundary: the fit modes, the
restart supervisor, its pool workers and the checkpoint fingerprint all
read it, and nothing else.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..distance.base import Metric
from ..exceptions import ParameterError
from ..rng import SeedLike
from ..validation import (
    check_dtype,
    check_fraction,
    check_k_l,
    check_max_retries,
    check_n_jobs,
    check_positive_int,
    check_time_budget,
)

__all__ = ["ProclusConfig"]

#: Field metadata marking a knob the checkpoint fingerprint leaves out:
#: how a run executes (workers, retries, budgets, checkpoint location), or
#: what the fingerprint already covers another way (restart count, seeds).
_EXECUTION = {"fingerprint": False}


@dataclass(frozen=True)
class ProclusConfig:
    """All PROCLUS knobs in one validated, immutable bundle.

    Construction checks and normalises every knob that does not depend
    on the data; :meth:`validated` adds the checks against a concrete
    dataset shape.  Derive variants with :func:`dataclasses.replace`.

    Parameters
    ----------
    k:
        Number of clusters to find.
    l:
        Average number of dimensions per cluster; ``l >= 2`` and ``k*l``
        integral (paper section 1).
    sample_factor:
        ``A`` — random-sample size multiplier for the initialization phase.
    pool_factor:
        ``B`` — candidate-medoid pool size multiplier (``B <= A``).
    min_deviation:
        Bad-medoid threshold fraction (paper default 0.1).
    max_bad_tries:
        Consecutive non-improving medoid swaps before termination.
    max_iterations:
        Absolute safety cap on hill-climbing iterations.
    metric:
        Full-dimensional metric for initialization/locality radii
        (the paper leaves ``d(.,.)`` generic; default Euclidean).
    min_dims_per_cluster:
        The paper hard-codes 2; configurable for ablations.
    handle_outliers:
        Disable to keep every point assigned (ablation hook; the paper
        always detects outliers in the refinement pass).
    keep_history:
        Record the per-iteration objective on
        ``result.objective_history``.
    restarts:
        Run the whole pipeline this many times with independent random
        streams and keep the run with the lowest *iterative-phase*
        objective.  The hill climbing is a randomised local search and
        can converge with two medoids piercing one natural cluster; the
        paper's own remedy (section 4.3) is to "simply run the
        algorithm a few times".  Selection uses the iterative objective
        because the refined one shrinks artificially when a bad
        solution declares many points outliers.
    fit_sample_size:
        CLARA-style large-database mode: run the initialization and the
        hill climbing on a uniform subsample of this size, then perform
        the refinement pass (dimension recomputation, assignment,
        outlier detection) over the *full* data.  Cuts the per-iteration
        O(N·k·d) cost to O(sample·k·d) while the final clustering still
        covers every point.  ``None`` (default) uses all points
        throughout, as the paper does.  Must be at least the
        initialization sample ``A*k``.  Composes with ``restarts``:
        every restart runs in large-database mode on its own subsample.
    time_budget_s:
        Wall-clock budget for the whole fit.  On expiry the hill
        climbing returns best-so-far with
        ``result.terminated_by == "deadline"`` (the first iteration
        always completes); remaining restarts are skipped.  ``None``
        (default) means unlimited.
    cache:
        Enable the incremental per-medoid distance cache
        (:class:`~repro.perf.cache.IterativeCache`, default on): each
        hill-climbing vertex recomputes only the columns its medoid
        swaps invalidated, bounded in memory by the same budget the
        distance kernels honour.  Results are bit-identical with the
        cache on or off; hit statistics land on ``result.cache_stats``.
        See ``docs/performance.md``.
    n_jobs:
        Worker count for the deterministic parallel execution layer
        (:mod:`repro.perf.parallel`).  ``1`` (default) is the exact
        serial code path; ``>= 2`` fans ``restarts > 1`` out over that
        many processes, sharing the sanitized data matrix through a
        zero-copy shared-memory plane; ``-1`` uses all cores.  Results
        are bit-identical to the serial loop for any ``n_jobs``: child
        seeds are spawned in the parent and the winner is reduced by
        ``(iterative_objective, restart_index)``, which is
        order-independent.  Worker/timing diagnostics land on
        ``result.parallelism``.
    max_retries:
        Per-restart retry budget under the fault-tolerant supervisor
        (:mod:`repro.robustness.supervisor`) that runs every
        multi-restart fit: a crashed or hung worker's restart is
        resubmitted (replaying the identical seed stream, so retries are
        bit-deterministic) up to this many times, then degrades to the
        in-process serial loop.  ``0`` disables retries.  Diagnostics
        land on ``result.fault_tolerance``.
    restart_timeout_s:
        Wall-clock cap per restart in the parallel fan-out; an in-flight
        restart exceeding it is treated as hung: the worker is replaced
        and the restart charged a retry.  ``None`` (default) disables
        hang detection.
    checkpoint_dir:
        Persist every completed restart of a multi-restart fit to this
        directory (atomic write-temp-then-rename).  An interrupted run —
        SIGINT/SIGTERM returns best-so-far with
        ``result.terminated_by == "signal"`` — can then be resumed.
        ``None`` (default) disables checkpointing.
    resume:
        Resume from ``checkpoint_dir``: completed restarts are loaded
        and skipped, and the final result is bit-identical to an
        uninterrupted run.  Requires ``checkpoint_dir``.  A manifest
        recorded by a different run — other seed, restart count, or a
        field of :meth:`result_fields` — raises
        :class:`~repro.exceptions.CheckpointError`; the execution knobs
        (``n_jobs``, ``max_retries``, ``restart_timeout_s``,
        ``time_budget_s``) may differ.
    dtype:
        Working dtype of the compute path: ``"float64"`` (default, the
        historical bit-exact path) or ``"float32"`` (half the memory
        bandwidth in every kernel; deterministic within the dtype but
        not bit-comparable to float64 runs, and checkpoints refuse to
        resume a run of the other precision).  See
        ``docs/performance.md``.
    seed:
        Seed or generator for all randomised steps.
    exclude_dims:
        Dimensions left out of the Z-score ranking.  Not a public
        parameter: only the ``auto_degrade`` plan of
        :func:`~repro.core.proclus.proclus` sets it (constant columns).
    """

    k: int
    l: float
    sample_factor: int = 30
    pool_factor: int = 5
    min_deviation: float = 0.1
    max_bad_tries: int = 20
    max_iterations: int = 300
    metric: Union[str, Metric] = "euclidean"
    min_dims_per_cluster: int = 2
    handle_outliers: bool = True
    keep_history: bool = True
    restarts: int = field(default=1, metadata=_EXECUTION)
    fit_sample_size: Optional[int] = None
    time_budget_s: Optional[float] = field(default=None, metadata=_EXECUTION)
    cache: bool = True
    n_jobs: int = field(default=1, metadata=_EXECUTION)
    max_retries: int = field(default=2, metadata=_EXECUTION)
    restart_timeout_s: Optional[float] = field(default=None,
                                               metadata=_EXECUTION)
    checkpoint_dir: Optional[str] = field(default=None, metadata=_EXECUTION)
    resume: bool = field(default=False, metadata=_EXECUTION)
    dtype: str = "float64"
    seed: SeedLike = field(default=None, metadata=_EXECUTION)
    exclude_dims: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        normalised = {
            "sample_factor": check_positive_int(self.sample_factor,
                                                name="sample_factor"),
            "pool_factor": check_positive_int(self.pool_factor,
                                              name="pool_factor"),
            "min_deviation": check_fraction(
                self.min_deviation, name="min_deviation",
                inclusive_high=False),
            "max_bad_tries": check_positive_int(self.max_bad_tries,
                                                name="max_bad_tries"),
            "max_iterations": check_positive_int(self.max_iterations,
                                                 name="max_iterations"),
            "min_dims_per_cluster": check_positive_int(
                self.min_dims_per_cluster, name="min_dims_per_cluster"),
            "restarts": check_positive_int(self.restarts, name="restarts"),
            "time_budget_s": check_time_budget(self.time_budget_s),
            "cache": bool(self.cache),
            "n_jobs": check_n_jobs(self.n_jobs),
            "max_retries": check_max_retries(self.max_retries),
            "restart_timeout_s": check_time_budget(
                self.restart_timeout_s, name="restart_timeout_s"),
            "checkpoint_dir": (None if self.checkpoint_dir is None
                               else str(self.checkpoint_dir)),
            "resume": bool(self.resume),
            "dtype": check_dtype(self.dtype),
        }
        for name, value in normalised.items():
            object.__setattr__(self, name, value)
        if self.pool_factor > self.sample_factor:
            raise ParameterError(
                "pool_factor (B) must be <= sample_factor (A); got "
                f"B={self.pool_factor}, A={self.sample_factor}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ParameterError(
                "resume=True requires checkpoint_dir to be set"
            )

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "ProclusConfig":
        """Build from a mapping holding (at least) every public field.

        Keys that are not fields are ignored, so a caller can pass its
        own ``locals()`` and list each parameter only in its signature.
        """
        return cls(**{f.name: params[f.name] for f in fields(cls)
                      if f.name in params})

    def validated(self, n_points: int, n_dims: int) -> "ProclusConfig":
        """Check against a concrete dataset shape; returns the checked copy."""
        k, l = check_k_l(self.k, self.l, n_dims, n_points)
        if isinstance(self.l, numbers.Integral):
            # an int l stays an int (every kernel reads only round(k*l)),
            # so a checkpoint fingerprint hashes l exactly as it was given
            l = int(self.l)
        if self.min_dims_per_cluster > l:
            raise ParameterError(
                f"min_dims_per_cluster={self.min_dims_per_cluster} exceeds "
                f"l={l}"
            )
        checked = replace(self, k=k, l=l)
        size = checked.fit_sample_size
        if (size is not None and size < n_points
                and size < checked.sample_size):
            raise ParameterError(
                f"fit_sample_size={size} is smaller than the initialization "
                f"sample A*k = {checked.sample_factor}*{k} = "
                f"{checked.sample_size}"
            )
        return checked

    def result_fields(self) -> Dict[str, Any]:
        """The fields that decide what one restart computes from its seed.

        These are what a checkpoint fingerprint hashes; execution knobs
        and the seed/restart count (hashed separately) are left out.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.metadata.get("fingerprint", True)}

    @property
    def total_dimensions(self) -> int:
        """The dimension budget ``k * l`` distributed by FindDimensions."""
        return int(round(self.k * self.l))

    @property
    def sample_size(self) -> int:
        """Initialization-phase random sample size ``A * k``."""
        return self.sample_factor * self.k

    @property
    def pool_size(self) -> int:
        """Candidate medoid pool size ``B * k``."""
        return self.pool_factor * self.k
