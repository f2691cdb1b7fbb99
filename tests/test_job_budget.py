"""Spark-job budgets of the fixed-point kernels and of a dataset build.

At lite scale a call's cost is mostly its Spark jobs (fixed scheduling
latency per job), so these tests pin job counts. A round's cost is the
jobs at ``iters=3`` minus those at ``iters=2``, which leaves out the
set-up and the final projection that every call pays once. The bounds
are the counts measured under this suite's session (8 shuffle
partitions, broadcast joins off); a change that adds a job per round or
per build fails here.
"""
import itertools

import pytest

from repro.graphs import datasets
from repro.metrics import centrality

_groups = itertools.count()


def jobs(spark, fn, *args, **kwargs) -> int:
    """Spark jobs that ``fn(*args, **kwargs)`` runs, counted under its own
    job group."""
    sc = spark.sparkContext
    group = f"job-budget-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        fn(*args, **kwargs)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    # The status store learns of jobs from the listener bus: drain it first.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


ROUND_BUDGET = {
    "pagerank": (centrality.pagerank, 5),
    "eigenvector": (centrality.eigenvector_centrality, 5),
    "katz": (centrality.katz_centrality, 4),
}


@pytest.mark.parametrize("kernel", sorted(ROUND_BUDGET))
@pytest.mark.parametrize("fixture", ["tiny_undirected", "tiny_directed"])
def test_jobs_per_round(spark, request, kernel, fixture):
    g = request.getfixturevalue(fixture)
    fn, budget = ROUND_BUDGET[kernel]
    per_round = jobs(spark, fn, g, iters=3) - jobs(spark, fn, g, iters=2)
    assert per_round <= budget


def test_dataset_load_jobs(spark):
    loaded = []
    n = jobs(spark, lambda: loaded.append(
        datasets.load(spark, "facebook_lite", scale=0.12, seed=0)
    ))
    loaded[0].graph.edges.unpersist()
    assert n <= 4
