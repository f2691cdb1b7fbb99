"""Unit tests for the core Graph abstraction (edge-list canonicalization,
adjacency views, degrees, driver-side exports)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def messy_graph(spark):
    """Edge list with self-loops, duplicates, and reversed duplicates."""
    pdf = pd.DataFrame(
        {
            "src": [0, 1, 1, 2, 3, 3, 4, 2],
            "dst": [1, 0, 2, 1, 3, 4, 3, 4],
            "weight": [1.0, 2.0, 1.0, 5.0, 9.0, 1.0, 2.0, 1.0],
        }
    )
    return pdf


class TestCanonicalization:
    def test_undirected_folds_orientation(self, spark, messy_graph):
        g = Graph.from_pandas(spark, messy_graph, directed=False, weighted=True, n=5)
        edges = g.to_pandas_edges()
        assert (edges["src"] < edges["dst"]).all()

    def test_self_loops_dropped(self, spark, messy_graph):
        g = Graph.from_pandas(spark, messy_graph, directed=False, weighted=True, n=5)
        edges = g.to_pandas_edges()
        assert not ((edges["src"] == edges["dst"]).any())

    def test_undirected_edge_count(self, spark, messy_graph):
        g = Graph.from_pandas(spark, messy_graph, directed=False, weighted=True, n=5)
        # simple edges: {0,1},{1,2},{3,4},{2,4}
        assert g.m == 4

    def test_parallel_edges_merge_max_weight(self, spark, messy_graph):
        g = Graph.from_pandas(spark, messy_graph, directed=False, weighted=True, n=5)
        e = g.to_pandas_edges().set_index(["src", "dst"])["weight"]
        assert e.loc[(0, 1)] == 2.0  # max(1.0, 2.0)
        assert e.loc[(1, 2)] == 5.0  # max(1.0, 5.0)

    def test_directed_keeps_orientation(self, spark, messy_graph):
        g = Graph.from_pandas(spark, messy_graph, directed=True, weighted=True, n=5)
        e = set(map(tuple, g.to_pandas_edges()[["src", "dst"]].to_numpy()))
        assert (0, 1) in e and (1, 0) in e
        assert g.m == 7  # 8 rows - 1 self loop

    def test_missing_weight_defaults_to_one(self, spark):
        pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=3)
        assert set(g.to_pandas_edges()["weight"]) == {1.0}

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("weight", [True, False])
    def test_from_pandas_matches_duckdb(self, spark, directed, weight):
        """The pandas canonicalization agrees with the same fold in SQL (oracle)."""
        pdf = pd.DataFrame(
            {
                # a self-loop, (0,1) in both orientations, (2,4) and (1,2)
                # twice in one orientation with different weights
                "src": [3, 0, 1, 2, 2, 1, 2, 4, 1],
                "dst": [3, 1, 0, 4, 4, 2, 1, 0, 2],
                "weight": [9.0, 1.0, 2.0, 0.5, 3.0, 1.0, 5.0, 4.0, 7.0],
            }
        )
        if not weight:
            pdf = pdf.drop(columns="weight")
        g = Graph.from_pandas(spark, pdf, directed=directed, weighted=weight, n=5)
        lo, hi = ("src", "dst") if directed else ("LEAST(src, dst)", "GREATEST(src, dst)")
        assert_equivalent(
            g.edges,
            f"""
            SELECT {lo} AS src, {hi} AS dst, MAX(weight) AS weight
            FROM e WHERE src <> dst GROUP BY 1, 2
            """,
            e=pdf if weight else pdf.assign(weight=1.0),
        )
        assert g.m == g.edges.count() == (6 if directed else 4)


class TestViews:
    def test_adjacency_doubles_undirected(self, tiny_undirected):
        g = tiny_undirected
        assert g.adjacency().count() == 2 * g.m

    def test_adjacency_identity_directed(self, tiny_directed):
        g = tiny_directed
        assert g.adjacency().count() == g.m

    def test_reverse_adjacency_directed(self, tiny_directed):
        g = tiny_directed
        fw = set(map(tuple, g.adjacency().select("src", "dst").toPandas().to_numpy()))
        bw = set(map(tuple, g.reverse_adjacency().select("src", "dst").toPandas().to_numpy()))
        assert bw == {(b, a) for a, b in fw}

    def test_vertices_range(self, tiny_undirected):
        v = tiny_undirected.vertices().toPandas()["v"]
        assert sorted(v) == list(range(tiny_undirected.n))

    def test_symmetrized_directed(self, tiny_directed):
        gu = tiny_directed.symmetrized()
        assert not gu.directed
        e = gu.to_pandas_edges()
        assert (e["src"] < e["dst"]).all()
        # every original arc is present as an undirected edge
        orig = tiny_directed.to_pandas_edges()
        pairs = set(map(tuple, e[["src", "dst"]].to_numpy()))
        for r in orig.itertuples():
            assert (min(r.src, r.dst), max(r.src, r.dst)) in pairs

    def test_symmetrized_lazy_directed(self, tiny_directed):
        """A directed graph whose edges Spark computes symmetrizes to the
        same edge list as the driver-built one."""
        lazy = tiny_directed.with_edges(tiny_directed.edges.repartition(4))
        pd.testing.assert_frame_equal(
            lazy.symmetrized().to_pandas_edges(), tiny_directed.symmetrized().to_pandas_edges()
        )

    def test_symmetrized_noop_on_undirected(self, tiny_undirected):
        assert tiny_undirected.symmetrized() is tiny_undirected


class TestDegrees:
    def test_degrees_match_duckdb_oracle(self, spark, tiny_undirected):
        g = tiny_undirected
        deg = g.degrees(include_zero=True).withColumnRenamed("degree", "d")
        assert_equivalent(
            deg,
            """
            WITH adj AS (
              SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges
            )
            SELECT verts.v AS v, COALESCE(cnt.d, 0) AS d
            FROM verts LEFT JOIN (
              SELECT v, COUNT(*) AS d FROM adj GROUP BY v
            ) cnt USING (v)
            """,
            edges=g.edges,
            verts=g.vertices(),
        )

    def test_directed_out_degrees_match_duckdb(self, spark, tiny_directed):
        g = tiny_directed
        deg = g.degrees(include_zero=True).withColumnRenamed("degree", "d")
        assert_equivalent(
            deg,
            """
            SELECT verts.v AS v, COALESCE(cnt.d, 0) AS d
            FROM verts LEFT JOIN (
              SELECT src AS v, COUNT(*) AS d FROM edges GROUP BY src
            ) cnt USING (v)
            """,
            edges=g.edges,
            verts=g.vertices(),
        )

    def test_degree_sum_equals_2m(self, tiny_undirected):
        g = tiny_undirected
        total = g.degrees().agg(F.sum("degree")).collect()[0][0]
        assert total == 2 * g.m

    def test_include_zero(self, spark):
        pdf = pd.DataFrame({"src": [0], "dst": [1]})
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=4)
        deg = g.degrees(include_zero=True).toPandas().set_index("v")["degree"]
        assert deg.loc[2] == 0 and deg.loc[3] == 0


class TestDriverViews:
    def test_to_arrays_roundtrip(self, tiny_undirected):
        s, d, w = tiny_undirected.to_arrays()
        assert len(s) == len(d) == len(w) == tiny_undirected.m
        assert (s < d).all()

    def test_csr_degree_consistency(self, tiny_undirected):
        indptr, nbrs, wts = tiny_undirected.to_csr()
        deg_csr = np.diff(indptr)
        deg_df = (
            tiny_undirected.degrees(include_zero=True)
            .toPandas().sort_values("v")["degree"].to_numpy()
        )
        assert (deg_csr == deg_df).all()

    def test_csr_directed_uses_out_edges(self, tiny_directed):
        indptr, nbrs, _ = tiny_directed.to_csr()
        assert len(nbrs) == tiny_directed.m

    def test_driver_views_are_copies(self, spark, messy_graph):
        """Writing into what the driver views return leaves the graph's own
        edge list as it was."""
        g = Graph.from_pandas(spark, messy_graph, directed=False, weighted=True, n=5)
        before = g.to_pandas_edges().copy()
        edges = g.to_pandas_edges()
        edges["src"] = -1
        edges.loc[0, "weight"] = -1.0
        for a in g.to_arrays():
            a[:] = -1
        pd.testing.assert_frame_equal(g.to_pandas_edges(), before)

    def test_with_edges_preserves_type(self, tiny_undirected):
        h = tiny_undirected.with_edges(tiny_undirected.edges.limit(3))
        assert h.n == tiny_undirected.n
        assert not h.directed
        assert h.m == 3

    def test_m_cached(self, tiny_undirected):
        assert tiny_undirected.m == tiny_undirected._m
