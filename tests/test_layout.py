"""A materialized graph keeps its edges in one partition; the kernels give
the same outputs over the same edges spread on eight partitions."""
import numpy as np
import pytest

from repro.core.experiment import sparsify_timed
from repro.core.registry import SPARSIFIERS
from repro.metrics import centrality, connectivity, degree

SCORES = {
    "pagerank": centrality.pagerank,
    "eigenvector": centrality.eigenvector_centrality,
    "katz": centrality.katz_centrality,
}


def spread(g):
    h = g.with_edges(g.edges.repartition(8))
    assert h.edges.rdd.getNumPartitions() == 8
    return h


def by_vertex(df, col):
    return df.toPandas().sort_values("v")[col].to_numpy()


@pytest.fixture(params=["tiny_undirected", "tiny_directed"])
def graph(request):
    g = request.getfixturevalue(request.param)
    assert g.edges.rdd.getNumPartitions() == 1
    return g


@pytest.mark.parametrize("kernel", sorted(SCORES))
def test_scores_match_across_layouts(graph, kernel):
    fn = SCORES[kernel]
    one = by_vertex(fn(graph, iters=10), "score")
    many = by_vertex(fn(spread(graph), iters=10), "score")
    assert len(one) == graph.n
    np.testing.assert_allclose(one, many, rtol=0, atol=1e-12)


def test_components_match_across_layouts(graph):
    one = by_vertex(connectivity.connected_components(graph), "comp")
    many = by_vertex(connectivity.connected_components(spread(graph)), "comp")
    assert np.array_equal(one, many)


def test_degree_counts_match_across_layouts(graph):
    assert np.array_equal(
        degree.degree_counts(graph), degree.degree_counts(spread(graph))
    )


def partitioning(df) -> str:
    """The output partitioning of ``df``'s executed plan, as Spark names it."""
    return df._jdf.queryExecution().executedPlan().outputPartitioning().toString()


def test_loaded_stand_in_is_single_partition(stand_in):
    assert partitioning(stand_in.edges) == "SinglePartition"


@pytest.mark.parametrize("ab", sorted(SPARSIFIERS))
def test_sparsified_cell_is_single_partition(stand_in, ab):
    """Every plan over a sweep cell's graph starts without an exchange."""
    h, _ = sparsify_timed(SPARSIFIERS[ab], stand_in, 0.5, seed=0)
    assert partitioning(h.edges) == "SinglePartition"
