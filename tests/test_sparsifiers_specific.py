"""Per-algorithm semantic tests: each sparsifier's defining property."""
import networkx as nx
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.registry import SPARSIFIERS
from repro.metrics.connectivity import connected_components, num_components
from repro.sparsifiers.base import best_int_threshold, target_edges, take_k
from repro.sparsifiers.effective_resistance import effective_resistances
from repro.sparsifiers.rank_degree import rank_degree_sparsify
from repro.sparsifiers.similarity import edge_scores, minhash_jaccard_scores
from tests.conftest import to_nx


class TestBaseHelpers:
    def test_target_edges(self):
        assert target_edges(100, 0.3) == 70
        assert target_edges(100, 0.99) == 1
        assert target_edges(10, 1.0) == 1

    def test_take_k_deterministic(self, tiny_undirected):
        a = take_k(tiny_undirected.edges, 5, [F.col("src"), F.col("dst")]).collect()
        b = take_k(tiny_undirected.edges, 5, [F.col("src"), F.col("dst")]).collect()
        assert a == b and len(a) == 5

    def test_best_int_threshold(self, spark):
        import pandas as pd

        df = spark.createDataFrame(
            pd.DataFrame({"rank": [1] * 10 + [2] * 10 + [3] * 10})
        )
        assert best_int_threshold(df, 10) == 1
        assert best_int_threshold(df, 22) == 2
        assert best_int_threshold(df, 300) == 3


class TestRandom:
    def test_exact_count(self, tiny_undirected):
        for rho in (0.2, 0.5, 0.8):
            h = SPARSIFIERS["RN"](tiny_undirected, rho, seed=0)
            assert h.m == target_edges(tiny_undirected.m, rho)

    def test_unbiased_degree_scaling(self, tiny_undirected):
        """Mean kept-degree should scale ~ (1-rho) uniformly across vertices."""
        g = tiny_undirected
        h = SPARSIFIERS["RN"](g, 0.5, seed=3)
        d0 = g.degrees().toPandas().sort_values("v")["degree"].to_numpy()
        d1 = h.degrees().toPandas().sort_values("v")["degree"].to_numpy()
        hubs = d0 >= np.median(d0)
        ratio_hubs = d1[hubs].sum() / d0[hubs].sum()
        ratio_rest = d1[~hubs].sum() / max(d0[~hubs].sum(), 1)
        assert abs(ratio_hubs - 0.5) < 0.12
        assert abs(ratio_rest - 0.5) < 0.2


class TestKNeighbor:
    def test_every_vertex_keeps_edges(self, tiny_undirected):
        h = SPARSIFIERS["KN"](tiny_undirected, 0.7, seed=0)
        used = set(h.to_pandas_edges()[["src", "dst"]].to_numpy().ravel())
        assert used == set(range(tiny_undirected.n))

    def test_weighted_bias(self, spark):
        """High-weight edges must be kept preferentially."""
        import pandas as pd

        rows = []
        for u in range(30):
            for v in range(u + 1, 30):
                rows.append((u, v, 10.0 if (u < 3 or v < 3) else 0.01))
        pdf = pd.DataFrame(rows, columns=["src", "dst", "weight"])
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=True, n=30)
        h = SPARSIFIERS["KN"](g, 0.8, seed=1)
        kept = h.to_pandas_edges()
        heavy_frac = (kept["weight"] > 1.0).mean()
        total_heavy_frac = (pdf["weight"] > 1.0).mean()
        assert heavy_frac > 2 * total_heavy_frac


class TestRankDegree:
    def test_budget_and_subset(self, tiny_undirected):
        h = SPARSIFIERS["RD"](tiny_undirected, 0.6, seed=0)
        assert h.m == target_edges(tiny_undirected.m, 0.6)

    def test_prefers_hub_edges(self, tiny_undirected):
        g = tiny_undirected
        h = SPARSIFIERS["RD"](g, 0.7, seed=0)
        deg = g.degrees().toPandas().set_index("v")["degree"]
        kept = h.to_pandas_edges()
        kept_max_deg = np.maximum(
            deg.loc[kept["src"]].to_numpy(), deg.loc[kept["dst"]].to_numpy()
        ).mean()
        all_e = g.to_pandas_edges()
        all_max_deg = np.maximum(
            deg.loc[all_e["src"]].to_numpy(), deg.loc[all_e["dst"]].to_numpy()
        ).mean()
        assert kept_max_deg > all_max_deg

    @staticmethod
    def top3_union(g):
        """Canonical edges in the union of every vertex's top-3 edges.

        Ranked by the head's out-degree descending, ties by ``dst``; heads
        with out-degree 0 are not candidates.
        """
        e = g.to_pandas_edges()[["src", "dst"]]
        inc = e if g.directed else pd.concat(
            [e, e.rename(columns={"src": "dst", "dst": "src"})], ignore_index=True
        )
        deg = inc.groupby("src").size()
        inc = inc[inc["dst"].isin(deg.index)].assign(nbr_deg=lambda x: x["dst"].map(deg))
        top = (
            inc.sort_values(["src", "nbr_deg", "dst"], ascending=[True, False, True])
            .groupby("src")
            .head(3)
        )
        if g.directed:
            return set(zip(top["src"], top["dst"]))
        return set(zip(np.minimum(top["src"], top["dst"]), np.maximum(top["src"], top["dst"])))

    @pytest.mark.parametrize("fixture", ["tiny_undirected", "tiny_directed"])
    def test_all_seed_round_is_top3_union(self, request, fixture):
        """With every vertex a seed, round 1 alone meets the budget."""
        g = request.getfixturevalue(fixture)
        union = self.top3_union(g)
        h = rank_degree_sparsify(g, 1.0 - len(union) / g.m, seed=0, seed_fraction=1.0)
        kept = h.to_pandas_edges()
        assert set(zip(kept["src"], kept["dst"])) == union and h.m == len(union)


class TestLocalDegree:
    def test_every_vertex_keeps_an_edge(self, tiny_undirected):
        h = SPARSIFIERS["LD"](tiny_undirected, 0.8, seed=0)
        used = set(h.to_pandas_edges()[["src", "dst"]].to_numpy().ravel())
        assert used == set(range(tiny_undirected.n))

    def test_top_neighbor_kept(self, tiny_undirected):
        """Each vertex's edge to its highest-degree neighbor survives."""
        g = tiny_undirected
        h = SPARSIFIERS["LD"](g, 0.8, seed=0)
        deg = g.degrees().toPandas().set_index("v")["degree"]
        kept = set(map(tuple, h.to_pandas_edges()[["src", "dst"]].to_numpy()))
        adj = {}
        for r in g.to_pandas_edges().itertuples():
            adj.setdefault(r.src, []).append(r.dst)
            adj.setdefault(r.dst, []).append(r.src)
        for v, nbrs in adj.items():
            best = min(nbrs, key=lambda u: (-deg.loc[u], u))
            assert (min(v, best), max(v, best)) in kept

    def test_deterministic_across_seeds(self, tiny_undirected):
        a = SPARSIFIERS["LD"](tiny_undirected, 0.5, seed=0).to_pandas_edges()
        b = SPARSIFIERS["LD"](tiny_undirected, 0.5, seed=42).to_pandas_edges()
        assert (
            a.sort_values(["src", "dst"]).to_numpy()
            == b.sort_values(["src", "dst"]).to_numpy()
        ).all()


class TestSpanningForest:
    def test_is_forest(self, tiny_undirected):
        h = SPARSIFIERS["SF"](tiny_undirected, 0.0, seed=0)
        n_comp = num_components(tiny_undirected)
        assert h.m == tiny_undirected.n - n_comp

    def test_preserves_components(self, tiny_disconnected):
        h = SPARSIFIERS["SF"](tiny_disconnected, 0.0, seed=0)
        assert num_components(h) == num_components(tiny_disconnected)

    def test_min_weight_forest(self, tiny_weighted):
        h = SPARSIFIERS["SF"](tiny_weighted, 0.0, seed=0)
        G = to_nx(tiny_weighted)
        T = nx.minimum_spanning_tree(G)
        assert abs(
            h.to_pandas_edges()["weight"].sum()
            - sum(d["weight"] for _, _, d in T.edges(data=True))
        ) < 1e-9


class TestSpanner:
    def test_spanner_property(self, tiny_undirected):
        t = 2.0
        h = SPARSIFIERS["SP"](tiny_undirected, 0.0, seed=0)
        G = to_nx(tiny_undirected)
        H = to_nx(h)
        dG = dict(nx.all_pairs_shortest_path_length(G))
        dH = dict(nx.all_pairs_shortest_path_length(H))
        for u in dG:
            for v, d in dG[u].items():
                assert dH[u][v] <= t * d

    def test_preserves_connectivity(self, tiny_disconnected):
        h = SPARSIFIERS["SP"](tiny_disconnected, 0.0, seed=0)
        assert num_components(h) == num_components(tiny_disconnected)


class TestForestFire:
    def test_budget(self, tiny_undirected):
        h = SPARSIFIERS["FF"](tiny_undirected, 0.5, seed=0)
        assert abs(h.m - target_edges(tiny_undirected.m, 0.5)) <= 2

    def test_directed_follows_out_edges(self, tiny_directed):
        h = SPARSIFIERS["FF"](tiny_directed, 0.5, seed=0)
        orig = set(map(tuple, tiny_directed.to_pandas_edges()[["src", "dst"]].to_numpy()))
        assert set(map(tuple, h.to_pandas_edges()[["src", "dst"]].to_numpy())) <= orig


class TestSimilarityScores:
    def test_jaccard_matches_networkx(self, tiny_undirected):
        g = tiny_undirected
        scored = edge_scores(g).toPandas()
        G = to_nx(g)
        for r in scored.itertuples():
            nx_j = next(iter(nx.jaccard_coefficient(G, [(r.src, r.dst)])))[2]
            assert abs(r.jaccard - nx_j) < 1e-9

    def test_common_neighbors_match_duckdb(self, spark, tiny_undirected):
        """DuckDB oracle: common-neighbor counts via SQL self-join."""
        from repro.oracle import assert_equivalent

        g = tiny_undirected
        scored = edge_scores(g).select(
            F.col("src").alias("u"), F.col("dst").alias("v"),
            F.col("common").cast("long").alias("cn"),
        )
        assert_equivalent(
            scored,
            """
            WITH adj AS (
              SELECT src AS a, dst AS b FROM edges
              UNION ALL SELECT dst, src FROM edges
            )
            SELECT e.src AS u, e.dst AS v, COALESCE(c.cn, 0) AS cn
            FROM edges e LEFT JOIN (
              SELECT a1.a AS u, a2.a AS v, COUNT(*) AS cn
              FROM adj a1 JOIN adj a2 ON a1.b = a2.b AND a1.a <> a2.a
              GROUP BY a1.a, a2.a
            ) c ON e.src = c.u AND e.dst = c.v
            """,
            edges=g.edges,
        )

    def test_scan_formula(self, tiny_undirected):
        scored = edge_scores(tiny_undirected).toPandas()
        expect = (scored["common"] + 1) / np.sqrt(
            (scored["du"] + 1.0) * (scored["dv"] + 1.0)
        )
        assert np.allclose(scored["scan"], expect)

    def test_minhash_estimates_jaccard(self, tiny_undirected):
        exact = edge_scores(tiny_undirected).toPandas().set_index(["src", "dst"])["jaccard"]
        est = (
            minhash_jaccard_scores(tiny_undirected, k_hashes=64, seed=0)
            .toPandas().set_index(["src", "dst"])["jaccard"]
        )
        err = (exact - est).abs().mean()
        assert err < 0.15


class TestSimilaritySparsifiers:
    def test_gspar_keeps_highest_jaccard(self, tiny_undirected):
        g = tiny_undirected
        h = SPARSIFIERS["GS"](g, 0.7, seed=0)
        scored = edge_scores(g).toPandas()
        kept = set(map(tuple, h.to_pandas_edges()[["src", "dst"]].to_numpy()))
        kept_scores = scored[[(r.src, r.dst) in kept for r in scored.itertuples()]]
        dropped = scored[[(r.src, r.dst) not in kept for r in scored.itertuples()]]
        assert kept_scores["jaccard"].min() >= dropped["jaccard"].max() - 1e-9

    def test_lsim_keeps_all_vertices(self, tiny_undirected):
        h = SPARSIFIERS["LSim"](tiny_undirected, 0.8, seed=0)
        used = set(h.to_pandas_edges()[["src", "dst"]].to_numpy().ravel())
        assert used == set(range(tiny_undirected.n))

    def test_lspar_local_guarantee(self, tiny_undirected):
        h = SPARSIFIERS["LS"](tiny_undirected, 0.8, seed=0)
        used = set(h.to_pandas_edges()[["src", "dst"]].to_numpy().ravel())
        assert used == set(range(tiny_undirected.n))


class TestEffectiveResistance:
    def test_resistances_match_dense_reference(self, tiny_weighted):
        """Independent NumPy reference built from the edge list."""
        g = tiny_weighted
        R = effective_resistances(g)
        e = g.to_pandas_edges()
        n = g.n
        L = np.zeros((n, n))
        for r in e.itertuples():
            L[r.src, r.dst] -= r.weight
            L[r.dst, r.src] -= r.weight
            L[r.src, r.src] += r.weight
            L[r.dst, r.dst] += r.weight
        Lp = np.linalg.pinv(L)
        for i in range(0, len(e), 5):
            u, v = int(e.iloc[i]["src"]), int(e.iloc[i]["dst"])
            ref = Lp[u, u] + Lp[v, v] - 2 * Lp[u, v]
            assert abs(R[i] - ref) < 1e-8

    def test_cycle_resistance_analytic(self, spark):
        """Unit cycle of length n: every edge has R = (n-1)/n."""
        import pandas as pd

        n = 12
        pdf = pd.DataFrame({"src": range(n), "dst": [(i + 1) % n for i in range(n)]})
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=n)
        R = effective_resistances(g)
        assert np.allclose(R, (n - 1) / n, atol=1e-9)

    def test_tree_edge_resistance_is_weightinv(self, path_graph):
        R = effective_resistances(path_graph)
        assert np.allclose(R, 1.0)  # every path edge is a bridge, R = 1/w

    def test_er_weighted_changes_weights(self, tiny_undirected):
        h = SPARSIFIERS["ERw"](tiny_undirected, 0.5, seed=0)
        w = h.to_pandas_edges()["weight"]
        assert (w != 1.0).any()

    def test_er_unweighted_keeps_weights(self, tiny_undirected):
        h = SPARSIFIERS["ERu"](tiny_undirected, 0.5, seed=0)
        assert set(h.to_pandas_edges()["weight"]) == {1.0}

    def test_bridge_has_max_sampling_weight(self, spark):
        """Two cliques + one bridge: the bridge has the maximal w*R score."""
        import pandas as pd

        rows = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        rows += [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
        rows += [(0, 6)]
        pdf = pd.DataFrame(rows, columns=["src", "dst"])
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=12)
        e = g.to_pandas_edges()
        R = effective_resistances(g)
        bridge_idx = e.index[(e["src"] == 0) & (e["dst"] == 6)][0]
        assert R[bridge_idx] == pytest.approx(1.0, abs=1e-9)  # it is a bridge
        assert R.argmax() == bridge_idx

    def test_bridges_survive_with_high_probability(self, spark):
        """ER sampling keeps the bridge in the vast majority of runs."""
        import pandas as pd

        rows = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        rows += [(u, v) for u in range(6, 12) for v in range(u + 1, 12)]
        rows += [(0, 6)]
        pdf = pd.DataFrame(rows, columns=["src", "dst"])
        g = Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=12)
        keeps = 0
        for s in range(5):
            h = SPARSIFIERS["ERw"](g, 0.4, seed=s)
            kept = set(map(tuple, h.to_pandas_edges()[["src", "dst"]].to_numpy()))
            keeps += (0, 6) in kept
        assert keeps >= 4
