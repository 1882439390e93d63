"""PROCLUS initialization phase (paper section 2.1).

Two successive reductions produce the candidate medoid pool ``M``:

1. a uniform random sample ``S`` of size ``A*k`` — cheap, and because
   outliers are rare the sample is dominated by cluster points;
2. the Gonzalez greedy technique applied to ``S``, keeping ``B*k``
   points — far-apart representatives, likely piercing every cluster.

The paper motivates the split: greedy alone over-picks outliers (they
are far from everything), while sampling alone gives no separation
guarantee.  Running greedy *on the sample* gets both properties and cuts
initialization cost.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..distance.base import Metric
from ..exceptions import ParameterError
from ..rng import SeedLike, ensure_rng
from .greedy import greedy_select

__all__ = ["initialize_medoid_pool"]


def initialize_medoid_pool(X: np.ndarray, sample_size: int, pool_size: int, *,
                           metric: Union[str, Metric] = "euclidean",
                           seed: SeedLike = None) -> np.ndarray:
    """Return indices (into ``X``) of the candidate medoid pool ``M``.

    Parameters
    ----------
    X:
        Data matrix ``(N, d)``: a finite, C-contiguous 2-D float32/float64
        array as :func:`repro.validation.check_array` returns it; it is
        not checked again.
    sample_size:
        ``A*k`` — size of the intermediate random sample ``S``.  Clamped
        to ``N`` when the dataset is smaller than the requested sample.
    pool_size:
        ``B*k`` — size of the returned pool; must be ``<= sample_size``.
    metric:
        Distance for the greedy farthest-point step.
    seed:
        Seed or generator.

    Returns
    -------
    numpy.ndarray
        ``pool_size`` distinct indices into ``X``.
    """
    n = X.shape[0]
    if pool_size > sample_size:
        raise ParameterError(
            f"pool_size ({pool_size}) must be <= sample_size ({sample_size})"
        )
    if pool_size > n:
        raise ParameterError(
            f"pool_size ({pool_size}) exceeds the number of points ({n}); "
            "reduce k or the pool_factor (B)"
        )
    rng = ensure_rng(seed)
    sample_size = min(sample_size, n)
    sample_indices = rng.choice(n, size=sample_size, replace=False)
    local = greedy_select(
        X[sample_indices], pool_size, metric=metric, seed=rng
    )
    return sample_indices[local]
