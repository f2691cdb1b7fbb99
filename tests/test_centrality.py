"""Tests for centrality metrics (PageRank, eigenvector, Katz, closeness,
top-k precision) against networkx / NumPy references."""
import networkx as nx
import numpy as np
import pytest

from repro.metrics import centrality, paths
from tests.conftest import to_nx


def numpy_pagerank(g, damping=0.85, iters=80):
    """Dense power-method reference with dangling redistribution."""
    n = g.n
    A = np.zeros((n, n))
    for r in g.to_pandas_edges().itertuples():
        A[r.src, r.dst] += r.weight
        if not g.directed:
            A[r.dst, r.src] += r.weight
    out = A.sum(axis=1)
    P = np.divide(A.T, out, out=np.zeros_like(A), where=out > 0)
    x = np.full(n, 1.0 / n)
    for _ in range(iters):
        x = (1 - damping) / n + damping * (P @ x + x[out == 0].sum() / n)
    return x


class TestPageRank:
    @pytest.mark.parametrize("fixture", ["tiny_undirected", "tiny_directed", "tiny_weighted"])
    def test_matches_reference(self, request, fixture):
        g = request.getfixturevalue(fixture)
        ours = centrality.pagerank(g, iters=40).toPandas().sort_values("v")["score"].to_numpy()
        ref = numpy_pagerank(g)
        assert np.abs(ours - ref).max() < 1e-6

    def test_sums_to_one(self, tiny_directed):
        s = centrality.pagerank(tiny_directed, iters=30).toPandas()["score"].sum()
        assert s == pytest.approx(1.0, abs=1e-6)

    def test_star_hub_ranks_first(self, star_graph):
        pr = centrality.pagerank(star_graph, iters=30).toPandas()
        assert pr.loc[pr["score"].idxmax(), "v"] == 0


class TestEigenvector:
    def test_matches_networkx_undirected(self, tiny_undirected):
        g = tiny_undirected
        ours = (
            centrality.eigenvector_centrality(g, iters=80)
            .toPandas().sort_values("v")["score"].to_numpy()
        )
        ref_d = nx.eigenvector_centrality(to_nx(g), max_iter=1000, tol=1e-12)
        ref = np.array([ref_d[i] for i in range(g.n)])
        ref /= np.linalg.norm(ref)
        assert np.abs(ours - ref).max() < 1e-6

    def test_left_eigenvector_directed(self, tiny_directed):
        """Directed: aggregation along edges = left eigenvector (Table 1)."""
        g = tiny_directed
        ours = (
            centrality.eigenvector_centrality(g, iters=120)
            .toPandas().sort_values("v")["score"].to_numpy()
        )
        n = g.n
        A = np.zeros((n, n))
        for r in g.to_pandas_edges().itertuples():
            A[r.src, r.dst] += r.weight
        x = np.ones(n)
        for _ in range(120):
            x = A.T @ x + 0.5 * x  # same shifted operator as the implementation
            nrm = np.linalg.norm(x)
            if nrm > 0:
                x /= nrm
        assert np.abs(ours - x).max() < 1e-6

    def test_star_hub_top(self, star_graph):
        sc = centrality.eigenvector_centrality(star_graph, iters=50).toPandas()
        assert sc.loc[sc["score"].idxmax(), "v"] == 0


class TestKatz:
    def test_ranking_matches_networkx(self, tiny_undirected):
        g = tiny_undirected
        ours = (
            centrality.katz_centrality(g, iters=80)
            .toPandas().sort_values("v")["score"].to_numpy()
        )
        G = to_nx(g)
        alpha = 1.0 / (max(dict(G.degree()).values()) + 1)
        ref_d = nx.katz_centrality(G, alpha=alpha, max_iter=5000, tol=1e-12)
        ref = np.array([ref_d[i] for i in range(g.n)])
        rho = np.corrcoef(np.argsort(np.argsort(ours)), np.argsort(np.argsort(ref)))[0, 1]
        assert rho > 0.999

    def test_default_alpha_uses_max_degree(self, star_graph):
        # hub degree 8 -> alpha = 1/9; leaves: alpha*(1 + 8*alpha*...) finite
        sc = centrality.katz_centrality(star_graph, iters=60).toPandas()
        assert sc.loc[sc["score"].idxmax(), "v"] == 0


class TestClosenessApprox:
    def test_full_sources_match_networkx_ranking(self, tiny_undirected):
        g = tiny_undirected
        ours = (
            centrality.closeness_approx(g, sources=list(range(g.n)))
            .toPandas().sort_values("v")["score"].to_numpy()
        )
        ref_d = nx.closeness_centrality(to_nx(g))
        ref = np.array([ref_d[i] for i in range(g.n)])
        rho = np.corrcoef(ours, ref)[0, 1]
        assert rho > 0.999

    def test_sampled_correlates(self, tiny_undirected):
        g = tiny_undirected
        srcs = paths.sample_sources(g, 20, seed=0)
        ours = (
            centrality.closeness_approx(g, sources=srcs)
            .toPandas().set_index("v")["score"]
        )
        ref_d = nx.closeness_centrality(to_nx(g))
        common = sorted(ours.index)
        rho = np.corrcoef(
            ours.loc[common].to_numpy(), [ref_d[v] for v in common]
        )[0, 1]
        assert rho > 0.8

    def test_sum_independent_of_row_order(self, spark, tiny_weighted, monkeypatch):
        """The same (s, v, dist) rows in two orders give bit-equal scores;
        in row order, (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ."""
        rows = [(s, 5, d) for s, d in enumerate([0.1, 0.2, 0.3])] + [(0, 6, 1.0)]
        scores = []
        for order in (rows, rows[::-1]):
            d = spark.createDataFrame(order, "s long, v long, dist double").coalesce(1)
            monkeypatch.setattr(centrality, "multi_source_distances", lambda g, s: d)
            sc = centrality.closeness_approx(tiny_weighted, sources=[0, 1, 2])
            scores.append(sc.toPandas().sort_values("v")["score"].tolist())
        assert scores[0] == scores[1]


class TestTopKPrecision:
    def test_identity_is_one(self, tiny_undirected):
        sc = centrality.pagerank(tiny_undirected, iters=10)
        assert centrality.top_k_precision(centrality.top_k(sc, 10), sc, k=10) == 1.0

    def test_disjoint_is_zero(self, spark):
        import pandas as pd

        a = spark.createDataFrame(
            pd.DataFrame({"v": range(20), "score": list(range(20))}),
            schema="v long, score double",
        )
        b = spark.createDataFrame(
            pd.DataFrame({"v": range(20), "score": list(range(19, -1, -1))}),
            schema="v long, score double",
        )
        assert centrality.top_k_precision(centrality.top_k(a, 5), b, k=5) == 0.0

    def test_top_k_tie_break_deterministic(self, spark):
        import pandas as pd

        a = spark.createDataFrame(
            pd.DataFrame({"v": range(10), "score": [1.0] * 10}),
            schema="v long, score double",
        )
        assert centrality.top_k(a, 3) == {0, 1, 2}
