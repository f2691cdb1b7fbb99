"""Spark-job budgets of the fixed-point kernels, of a dataset build and of
sweep cells.

At lite scale a call's cost is mostly its Spark jobs (fixed scheduling
latency per job), so these tests pin job counts. A round's cost is the
jobs at 3 rounds (``iters`` or ``max_iter``) minus those at 2, which
leaves out the set-up and the final projection that every call pays
once. The bounds are the counts measured under this suite's session (8
shuffle partitions, broadcast joins off) on graphs materialized in one
partition; a change that adds a job per round, per build or per cell
fails here.
"""
import pytest

from repro.core.experiment import sparsify_timed
from repro.core.jobs import JobCount
from repro.core.registry import SPARSIFIERS
from repro.gnn.data import make_node_data
from repro.gnn.train import eval_graphsage
from repro.graphs import datasets
from repro.metrics import betweenness, centrality, clustering, connectivity, degree, paths


def jobs(spark, fn, *args, **kwargs) -> int:
    """Spark jobs that ``fn(*args, **kwargs)`` runs."""
    with JobCount(spark, "job-budget") as count:
        fn(*args, **kwargs)
    return count.n


ROUND_BUDGET = {
    "pagerank": (centrality.pagerank, 4),
    "eigenvector": (centrality.eigenvector_centrality, 4),
    "katz": (centrality.katz_centrality, 4),
}


@pytest.mark.parametrize("kernel", sorted(ROUND_BUDGET))
@pytest.mark.parametrize("fixture", ["tiny_undirected", "tiny_directed"])
def test_jobs_per_round(spark, request, kernel, fixture):
    g = request.getfixturevalue(fixture)
    fn, budget = ROUND_BUDGET[kernel]
    per_round = jobs(spark, fn, g, iters=3) - jobs(spark, fn, g, iters=2)
    assert per_round <= budget


# Kernels that stop after a round that flags no changed row; the BFS
# kernels run from vertex 0.
STOPPING_ROUND_BUDGET = {
    "components": (connectivity.connected_components, 3),
    "lpa": (clustering.lpa_communities, 4),
    "multi_source_distances": (
        lambda g, max_iter: paths.multi_source_distances(g, [0], max_iter=max_iter), 3
    ),
    "bfs_sigma": (lambda g, max_iter: betweenness.bfs_sigma(g, [0], max_iter=max_iter), 3),
}


@pytest.mark.parametrize("kernel", sorted(STOPPING_ROUND_BUDGET))
def test_jobs_per_stopping_round(spark, path_graph, kernel):
    fn, budget = STOPPING_ROUND_BUDGET[kernel]
    per_round = jobs(spark, fn, path_graph, max_iter=3) - jobs(spark, fn, path_graph, max_iter=2)
    # Round 3 still changes rows on the path, so neither count stopped early.
    two, three = [sorted(map(tuple, fn(path_graph, max_iter=k).collect())) for k in (2, 3)]
    assert two != three
    assert per_round <= budget


def test_dataset_load_jobs(spark):
    """A stand-in is built and counted on the driver."""
    assert jobs(spark, datasets.load, spark, "facebook_lite", scale=0.12, seed=0) == 0


def test_sweep_cell_jobs(spark, stand_in):
    """One cell of the Fig 2 sweep: materialize LD's output and take its
    degree histogram."""

    def cell():
        h, _ = sparsify_timed(SPARSIFIERS["LD"], stand_in, 0.5, seed=0)
        degree.degree_histogram(h)

    assert jobs(spark, cell) <= 4


# RN: the checkpoint's job and the histogram's. RD, FF, SF, SP and ERw: the
# histogram's alone; their driver-side kernels read the stand-in's own edge
# list, and their output enters Spark materialized and needs no checkpoint.
FIG02_CELL_BUDGET = {"RN": 2, "RD": 1, "FF": 1, "SF": 1, "SP": 1, "ERw": 1}


@pytest.mark.parametrize("ab", sorted(FIG02_CELL_BUDGET))
def test_fig02_cell_jobs(spark, stand_in, ab):
    """A Fig 2 cell whose sparsifier output reads as one partition: the
    histogram over it needs no exchange."""

    def cell():
        h, _ = sparsify_timed(SPARSIFIERS[ab], stand_in, 0.5, seed=0)
        degree.degree_histogram(h)

    assert jobs(spark, cell) <= FIG02_CELL_BUDGET[ab]


@pytest.mark.parametrize("ab", ["RN", "KN", "LD"])
def test_fig11_cell_jobs(spark, stand_in, ab):
    """The metric half of a Fig 11 cell: one PageRank round on the
    sparsified graph and its top-k."""
    h, _ = sparsify_timed(SPARSIFIERS[ab], stand_in, 0.5, seed=0)
    assert jobs(spark, lambda: centrality.top_k(centrality.pagerank(h, iters=1), 20)) <= 2


def test_er_sparsify_jobs(spark, tiny_directed):
    """ER on a directed input symmetrizes the driver's edge list, which
    feeds both the resistances and the sample: no Spark job."""
    assert jobs(spark, SPARSIFIERS["ERw"], tiny_directed, 0.5, seed=0) == 0


def test_gnn_eval_jobs(spark):
    """One Fig 13 GraphSAGE cell: only the sparsified training graph is
    collected; the full graph is the stand-in's own edge list."""
    ds = datasets.load(spark, "proteins_lite", scale=0.12, seed=0)
    data = make_node_data(ds.labels, seed=0)
    h, _ = sparsify_timed(SPARSIFIERS["RN"], ds.graph, 0.5, seed=0)
    assert jobs(spark, eval_graphsage, h, ds.graph, data, epochs=2) <= 1
