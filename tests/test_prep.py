"""Tests for the §3.1 preprocessing pipeline (prep.py)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.graphs import generators as gen
from repro.graphs import prep


@pytest.fixture(scope="module")
def gappy_edges():
    """Edges over sparse ids {2, 5, 9, 14} of a 20-vertex id space."""
    return pd.DataFrame({"src": [2, 5, 9], "dst": [5, 9, 14]})


@pytest.fixture(scope="module")
def gappy_graph(spark, gappy_edges):
    """The same edges as a Graph with vertices 0..19 declared."""
    return Graph.from_pandas(spark, gappy_edges, directed=False, weighted=False, n=20)


def pairs(e: pd.DataFrame) -> set:
    return set(map(tuple, e[["src", "dst"]].to_numpy().tolist()))


class TestDropIsolatedAndReindex:
    def test_vertex_count(self, gappy_edges):
        _, old_ids = prep.drop_isolated_and_reindex(gappy_edges)
        assert len(old_ids) == 4
        assert list(old_ids) == [2, 5, 9, 14]

    def test_ids_dense_zero_based(self, gappy_edges):
        e, _ = prep.drop_isolated_and_reindex(gappy_edges)
        assert set(e["src"]) | set(e["dst"]) <= set(range(4))

    def test_order_preserving(self, gappy_edges):
        e, _ = prep.drop_isolated_and_reindex(gappy_edges)
        # edge 2-5 must become 0-1, 5-9 -> 1-2, 9-14 -> 2-3
        assert pairs(e) == {(0, 1), (1, 2), (2, 3)}

    def test_edge_count_preserved(self, spark, gappy_edges, gappy_graph):
        e, old_ids = prep.drop_isolated_and_reindex(gappy_edges)
        g2 = Graph.from_pandas(spark, e, directed=False, weighted=False, n=len(old_ids))
        assert g2.m == gappy_graph.m

    def test_label_realignment(self):
        pdf = pd.DataFrame({"src": [3, 7], "dst": [7, 9]})
        labels = np.arange(100, 112)
        _, old_ids = prep.drop_isolated_and_reindex(pdf)
        realigned = labels[old_ids]
        assert list(realigned) == [103, 107, 109]

    def test_noop_when_no_isolated(self):
        # The edge list of the tiny_undirected fixture, which uses all 70 ids.
        pdf = gen.holme_kim(70, 3, 0.5, seed=7)
        e, old_ids = prep.drop_isolated_and_reindex(pdf)
        assert len(old_ids) == 70
        assert (old_ids == np.arange(70)).all()
        assert pairs(e) == pairs(pdf)

    def test_directed_preserved(self, spark):
        pdf = pd.DataFrame({"src": [4, 8], "dst": [8, 4]})
        e, old_ids = prep.drop_isolated_and_reindex(pdf)
        g2 = Graph.from_pandas(spark, e, directed=True, weighted=False, n=len(old_ids))
        assert g2.directed
        assert pairs(g2.to_pandas_edges()) == {(0, 1), (1, 0)}

    def test_self_loop_only_vertex_is_isolated(self, spark):
        # Vertex 3's only edge is a self-loop: Graph.from_pandas drops it, so
        # the Spark oracle counts 3 as isolated, and the reindex drops it.
        pdf = pd.DataFrame({"src": [0, 3, 1], "dst": [1, 3, 5]})
        e, old_ids = prep.drop_isolated_and_reindex(pdf)
        assert list(old_ids) == [0, 1, 5]
        assert pairs(e) == {(0, 1), (1, 2)}
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=6)
        assert len(old_ids) == g.n - prep.isolated_count(g)
        assert list(old_ids) == sorted(prep.used_vertices(g).toPandas()["v"])


class TestIsolatedCount:
    def test_counts_isolated(self, gappy_graph):
        assert prep.isolated_count(gappy_graph) == 16

    def test_zero_for_dense(self, tiny_undirected):
        assert prep.isolated_count(tiny_undirected) == 0

    def test_used_vertices(self, gappy_graph):
        used = prep.used_vertices(gappy_graph).toPandas()["v"]
        assert sorted(used) == [2, 5, 9, 14]
