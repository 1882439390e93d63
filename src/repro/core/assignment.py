"""Point assignment (paper Figure 5).

Every point goes to the medoid with the smallest **Manhattan segmental
distance** relative to that medoid's dimension set ``D_i`` — a single
pass over the database.  The batch form below computes the full
``(N, k)`` segmental-distance matrix through the vectorised
multi-medoid kernel (:func:`repro.perf.kernels.segmental_columns` —
one gather over a concatenated dims layout plus ``np.add.reduceat``,
``O(N * k * l)`` work) and also backs the refinement phase's outlier
test.  During hill climbing an
:class:`~repro.perf.cache.IterativeCache` can reuse the columns of
medoids that kept both their row and their dimension set since the
previous vertex.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ParameterError
from ..perf.kernels import segmental_columns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..perf.cache import IterativeCache

__all__ = ["segmental_distance_matrix", "assign_points"]


def segmental_distance_matrix(X: np.ndarray, medoids: np.ndarray,
                              dim_sets: Sequence[Sequence[int]], *,
                              cache: Optional["IterativeCache"] = None,
                              medoid_indices: Optional[np.ndarray] = None) -> np.ndarray:
    """``(N, k)`` matrix of segmental distances to each medoid.

    Column ``i`` uses medoid ``i``'s own dimension set ``D_i``, as the
    paper's assignment requires.  When ``cache`` *and* the medoids' row
    indices into ``X`` are provided, columns are served from the cache
    where possible (bit-identical to the direct computation).

    ``X`` must be a finite, C-contiguous 2-D float32/float64 array as
    :func:`repro.validation.check_array` returns it; it is not checked
    again.
    """
    medoids = np.atleast_2d(np.asarray(medoids, dtype=X.dtype))
    k = medoids.shape[0]
    if len(dim_sets) != k:
        raise ParameterError(
            f"need one dimension set per medoid; got {len(dim_sets)} for k={k}"
        )
    if cache is not None and medoid_indices is not None:
        return cache.segmental_matrix(X, medoid_indices, dim_sets)
    return segmental_columns(X, medoids, dim_sets)


def assign_points(X: np.ndarray, medoids: np.ndarray,
                  dim_sets: Sequence[Sequence[int]],
                  return_distances: bool = False, *,
                  cache: Optional["IterativeCache"] = None,
                  medoid_indices: Optional[np.ndarray] = None,
                  ) -> Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
    """Assign every point to its segmentally-closest medoid.

    Returns the label array (ids ``0..k-1``); with
    ``return_distances=True`` also returns the ``(N, k)`` distance
    matrix so callers (objective evaluation, outlier detection) can
    reuse it without a second pass.  ``cache``/``medoid_indices`` are
    forwarded to :func:`segmental_distance_matrix`.

    ``X`` must be a finite, C-contiguous 2-D float32/float64 array as
    :func:`repro.validation.check_array` returns it; it is not checked
    again.
    """
    dist = segmental_distance_matrix(X, medoids, dim_sets,
                                     cache=cache,
                                     medoid_indices=medoid_indices)
    labels = np.argmin(dist, axis=1).astype(np.int64)
    if return_distances:
        return labels, dist
    return labels

