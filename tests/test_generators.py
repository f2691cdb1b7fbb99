"""Unit tests for the synthetic graph generators (driver-side NumPy)."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen


class TestErdosRenyi:
    def test_exact_edge_count(self):
        e = gen.erdos_renyi(50, 200, seed=0)
        assert len(e) == 200

    def test_pairs_valid_and_distinct(self):
        e = gen.erdos_renyi(30, 150, seed=1)
        assert (e["src"] < e["dst"]).all()
        assert (e["dst"] < 30).all() and (e["src"] >= 0).all()
        assert not e.duplicated(["src", "dst"]).any()

    def test_capped_at_complete_graph(self):
        e = gen.erdos_renyi(5, 1000, seed=2)
        assert len(e) == 10

    def test_deterministic(self):
        a = gen.erdos_renyi(40, 100, seed=3)
        b = gen.erdos_renyi(40, 100, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_weighted(self):
        e = gen.erdos_renyi(20, 50, seed=4, weighted=True)
        assert "weight" in e.columns
        assert e["weight"].between(0.1, 1.0).all()

    @given(n=st.integers(3, 40), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_pair_decode_property(self, n, seed):
        m = min(n * (n - 1) // 2, 3 * n)
        e = gen.erdos_renyi(n, m, seed=seed)
        assert len(e) == m
        assert (e["src"] < e["dst"]).all()
        assert (e["dst"] < n).all()
        assert not e.duplicated(["src", "dst"]).any()


class TestBarabasiAlbert:
    def test_edge_count(self):
        # clique(m+1) + (n - m - 1) * m edges
        e = gen.barabasi_albert(50, 3, seed=0)
        assert len(e) == 6 + 46 * 3

    def test_connected(self):
        import networkx as nx

        e = gen.barabasi_albert(60, 2, seed=1)
        G = nx.from_pandas_edgelist(e, "src", "dst")
        G.add_nodes_from(range(60))
        assert nx.is_connected(G)

    def test_powerlaw_hubs(self):
        # early vertices accumulate much higher degree than late ones
        e = gen.barabasi_albert(300, 3, seed=2)
        deg = np.zeros(300)
        np.add.at(deg, e["src"], 1)
        np.add.at(deg, e["dst"], 1)
        assert deg[:10].mean() > 4 * deg[200:].mean()

    def test_deterministic(self):
        pd.testing.assert_frame_equal(
            gen.barabasi_albert(40, 2, seed=9), gen.barabasi_albert(40, 2, seed=9)
        )


class TestHolmeKim:
    def test_connected_and_clustered(self):
        import networkx as nx

        e = gen.holme_kim(120, 3, 0.9, seed=0)
        G = nx.from_pandas_edgelist(e, "src", "dst")
        G.add_nodes_from(range(120))
        assert nx.is_connected(G)
        # triad closure drives clustering well above a BA baseline
        e_ba = gen.barabasi_albert(120, 3, seed=0)
        G_ba = nx.from_pandas_edgelist(e_ba, "src", "dst")
        assert nx.average_clustering(G) > nx.average_clustering(G_ba)

    def test_deterministic(self):
        pd.testing.assert_frame_equal(
            gen.holme_kim(50, 2, 0.5, seed=4), gen.holme_kim(50, 2, 0.5, seed=4)
        )


class TestSBM:
    def test_labels_balanced(self):
        _, labels = gen.sbm(100, 5, avg_deg_in=4, avg_deg_out=1, seed=0)
        counts = np.bincount(labels)
        assert len(counts) == 5
        assert counts.max() - counts.min() <= 1

    def test_intra_edges_dominate(self):
        e, labels = gen.sbm(200, 4, avg_deg_in=8, avg_deg_out=1, seed=1)
        same = (labels[e["src"]] == labels[e["dst"]]).mean()
        assert same > 0.7

    def test_edge_budget_close(self):
        e, _ = gen.sbm(200, 4, avg_deg_in=6, avg_deg_out=2, seed=2)
        target = 200 * 8 / 2
        assert abs(len(e) - target) / target < 0.15

    def test_deterministic(self):
        a, la = gen.sbm(80, 4, avg_deg_in=5, avg_deg_out=1, seed=3)
        b, lb = gen.sbm(80, 4, avg_deg_in=5, avg_deg_out=1, seed=3)
        pd.testing.assert_frame_equal(a, b)
        assert (la == lb).all()


class TestRmat:
    def test_vertex_range(self):
        e = gen.rmat(6, 500, seed=0)
        assert e[["src", "dst"]].max().max() < 64

    def test_skew(self):
        e = gen.rmat(8, 3000, seed=1)
        out = np.bincount(e["src"], minlength=256)
        # heavy skew: top decile of vertices emits most edges
        top = np.sort(out)[-26:].sum()
        assert top > 0.35 * out.sum()

    def test_deterministic(self):
        pd.testing.assert_frame_equal(gen.rmat(6, 200, seed=5), gen.rmat(6, 200, seed=5))


class TestPowerlawDirected:
    def test_shape(self):
        e = gen.powerlaw_directed(100, 800, seed=0)
        assert len(e) == 800
        assert e[["src", "dst"]].max().max() < 100

    def test_out_degree_skew(self):
        e = gen.powerlaw_directed(200, 4000, seed=1)
        out = np.bincount(e["src"], minlength=200)
        assert np.sort(out)[-5:].sum() > 0.3 * out.sum()


class TestConnectComponents:
    def test_connects_disconnected(self):
        import networkx as nx

        e1 = gen.erdos_renyi(20, 40, seed=0)
        e2 = gen.erdos_renyi(20, 40, seed=1)
        e2[["src", "dst"]] += 20
        e = pd.concat([e1, e2], ignore_index=True)
        out = gen.connect_components(e, 40, seed=0)
        G = nx.from_pandas_edgelist(out, "src", "dst")
        G.add_nodes_from(range(40))
        assert nx.is_connected(G)

    def test_noop_when_connected(self):
        e = gen.barabasi_albert(30, 2, seed=0)
        out = gen.connect_components(e, 30, seed=0)
        assert len(out) == len(e)

    def test_includes_isolated_vertices(self):
        import networkx as nx

        e = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        out = gen.connect_components(e, 6, seed=0)
        G = nx.from_pandas_edgelist(out, "src", "dst")
        G.add_nodes_from(range(6))
        assert nx.is_connected(G)
