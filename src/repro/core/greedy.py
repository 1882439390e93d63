"""Gonzalez greedy farthest-point selection (paper Figure 3, ref [14]).

Starting from one random point, each subsequent pick is the point whose
distance to its closest already-chosen point is maximal.  On well
separated, outlier-free data the first ``k`` picks pierce all ``k``
clusters; PROCLUS runs it on a random *sample* (which dilutes outliers)
and over-selects (``B*k`` points) to make piercing likely despite both
outliers and projected structure.

The implementation maintains the classic ``dist`` array of
closest-chosen-point distances, updated incrementally, for
``O(|S| * k)`` metric evaluations.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..distance.base import Metric, get_metric
from ..exceptions import ParameterError
from ..rng import SeedLike, ensure_rng
from ..validation import check_positive_int

__all__ = ["greedy_select"]


def greedy_select(S: np.ndarray, n_select: int, *,
                  metric: Union[str, Metric] = "euclidean",
                  first: Optional[int] = None,
                  seed: SeedLike = None) -> np.ndarray:
    """Select ``n_select`` mutually far points from ``S``.

    Parameters
    ----------
    S:
        Candidate points, shape ``(m, d)``: a finite, C-contiguous 2-D
        float32/float64 array as :func:`repro.validation.check_array`
        returns it; it is not checked again.
    n_select:
        Number of points to pick (``<= m``).
    metric:
        Distance used for the farthest-point criterion.
    first:
        Optional index of the first pick; random when ``None`` (the
        paper starts from a random point of ``S``).
    seed:
        Seed for the random first pick.

    Returns
    -------
    numpy.ndarray
        Indices into ``S`` of the selected points, in pick order.
    """
    m = S.shape[0]
    n_select = check_positive_int(n_select, name="n_select", minimum=1)
    if n_select > m:
        raise ParameterError(
            f"cannot select {n_select} points from a set of {m}"
        )
    metric = get_metric(metric)
    rng = ensure_rng(seed)

    if first is None:
        first = int(rng.integers(m))
    elif not 0 <= first < m:
        raise ParameterError(f"first must index into S (0..{m - 1}); got {first}")

    chosen = np.empty(n_select, dtype=np.intp)
    chosen[0] = first
    # dist[x] = distance from x to its nearest already-chosen point
    dist = metric.pairwise_to_point(S, S[first])
    dist[first] = -np.inf  # never re-pick
    for i in range(1, n_select):
        nxt = int(np.argmax(dist))
        chosen[i] = nxt
        new_dist = metric.pairwise_to_point(S, S[nxt])
        np.minimum(dist, new_dist, out=dist)
        dist[nxt] = -np.inf
    return chosen
