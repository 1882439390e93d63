"""Robustness bench: the initialization pool pierces every cluster.

Paper sections 2.1 and 3: the random-sample + greedy pipeline should,
with high probability, produce a candidate pool containing a
representative of every natural cluster while picking few outliers.
This bench measures the piercing rate over many seeds on the Case-1
workload and requires it to be (near-)perfect.
"""

from conftest import run_once

from repro.core import piercing_report
from repro.core.initialization import initialize_medoid_pool


def _piercing_rate(dataset, n_seeds: int = 20) -> dict:
    pierced = 0
    outlier_picks = 0
    for s in range(n_seeds):
        pool = initialize_medoid_pool(
            dataset.points, 30 * 5, 5 * 5, seed=1000 + s,
        )
        report = piercing_report(pool, dataset.labels)
        pierced += report.is_piercing
        outlier_picks += report.n_outlier_points
    return {
        "piercing_rate": pierced / n_seeds,
        "mean_outlier_picks": outlier_picks / n_seeds,
    }


def test_initialization_piercing_rate(benchmark, case1_dataset):
    stats = run_once(benchmark, _piercing_rate, case1_dataset)

    # every (or almost every) run produces a piercing pool...
    assert stats["piercing_rate"] >= 0.95
    # ...and outliers do not dominate the 25-point pool
    assert stats["mean_outlier_picks"] < 10
