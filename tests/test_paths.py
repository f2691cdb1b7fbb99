"""Tests for distance metrics (multi-source shortest paths, SPSP stretch,
eccentricity, approximate diameter) against networkx."""
import networkx as nx
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.metrics import paths
from tests.conftest import to_nx


def nx_sssp(G, s, weighted):
    if weighted:
        return nx.single_source_dijkstra_path_length(G, s, weight="weight")
    return {k: float(v) for k, v in nx.single_source_shortest_path_length(G, s).items()}


class TestMultiSourceDistances:
    @pytest.mark.parametrize(
        "fixture,weighted",
        [("tiny_undirected", False), ("tiny_directed", False), ("tiny_weighted", True),
         ("tiny_disconnected", False)],
    )
    def test_matches_networkx(self, request, fixture, weighted):
        g = request.getfixturevalue(fixture)
        G = to_nx(g)
        sources = paths.sample_sources(g, 4, seed=1)
        d = paths.multi_source_distances(g, sources).toPandas()
        for s in sources:
            ours = {int(r.v): r.dist for r in d[d.s == s].itertuples()}
            ref = nx_sssp(G, s, weighted)
            assert set(ours) == set(ref)
            for v in ref:
                assert ours[v] == pytest.approx(ref[v])

    def test_unreachable_absent(self, tiny_disconnected):
        g = tiny_disconnected
        d = paths.multi_source_distances(g, [0]).toPandas()
        G = to_nx(g)
        assert len(d) == len(nx.node_connected_component(G, 0))


class TestSampleSources:
    def test_deterministic_and_distinct(self, tiny_undirected):
        a = paths.sample_sources(tiny_undirected, 10, seed=3)
        b = paths.sample_sources(tiny_undirected, 10, seed=3)
        assert a == b
        assert len(set(a)) == 10

    def test_clamped_to_n(self, path_graph):
        assert len(paths.sample_sources(path_graph, 99, seed=0)) == path_graph.n


class TestSpspStretch:
    def test_identity(self, tiny_undirected):
        srcs = paths.sample_sources(tiny_undirected, 3, seed=0)
        d = paths.multi_source_distances(tiny_undirected, srcs)
        stretch, unreach = paths.spsp_stretch(d, d)
        assert stretch == pytest.approx(1.0)
        assert unreach == 0.0

    def test_sparsified_stretch_geq_one(self, tiny_undirected):
        from repro.core.registry import SPARSIFIERS

        h = SPARSIFIERS["RN"](tiny_undirected, 0.5, seed=0)
        srcs = paths.sample_sources(tiny_undirected, 3, seed=0)
        stretch, unreach = paths.spsp_stretch(
            paths.multi_source_distances(tiny_undirected, srcs),
            paths.multi_source_distances(h, srcs),
        )
        assert stretch >= 1.0
        assert 0.0 <= unreach <= 1.0

    def test_path_graph_known_values(self, path_graph):
        # removing the middle edge of a path: all crossing pairs unreachable
        from pyspark.sql import functions as F

        h = path_graph.with_edges(
            path_graph.edges.where(~((F.col("src") == 4) & (F.col("dst") == 5)))
        )
        srcs = list(range(10))
        stretch, unreach = paths.spsp_stretch(
            paths.multi_source_distances(path_graph, srcs),
            paths.multi_source_distances(h, srcs),
        )
        assert stretch == pytest.approx(1.0)  # surviving pairs keep distance
        # pairs crossing the cut: 5*5 ordered both ways = 50 of 90
        assert unreach == pytest.approx(50 / 90)


class TestEccentricity:
    def test_matches_networkx(self, tiny_undirected):
        g = tiny_undirected
        h = g.with_edges(g.edges.where((F.col("src") + F.col("dst")) % 3 != 0))
        G, H = to_nx(g), to_nx(h)
        srcs = paths.sample_sources(g, 5, seed=2)
        d0 = paths.multi_source_distances(g, srcs)
        d1 = paths.multi_source_distances(h, srcs)
        # H is a subgraph of the connected G, so its reach from s lies
        # within G's and its eccentricity is the farthest vertex it reaches.
        ratios = [
            max(nx.single_source_shortest_path_length(H, s).values())
            / nx.eccentricity(G, v=s)
            for s in srcs
        ]
        assert np.mean(ratios) > 1.0
        assert paths.eccentricity_stretch(d0, d1) == pytest.approx(np.mean(ratios))

    def test_stretch_identity(self, tiny_undirected):
        srcs = paths.sample_sources(tiny_undirected, 4, seed=0)
        d = paths.multi_source_distances(tiny_undirected, srcs)
        assert paths.eccentricity_stretch(d, d) == pytest.approx(1.0)


class TestApproxDiameter:
    def test_bounds(self, tiny_undirected):
        G = to_nx(tiny_undirected)
        true_d = nx.diameter(G)
        approx = paths.approx_diameter(tiny_undirected, n_seeds=6, seed=0)
        assert approx <= true_d
        assert approx >= true_d / 2  # double-sweep lower-bound guarantee

    def test_path_graph_exact(self, path_graph):
        # double sweep is exact on a path
        assert paths.approx_diameter(path_graph, n_seeds=3, seed=0) == 9.0

    def test_deterministic(self, tiny_undirected):
        a = paths.approx_diameter(tiny_undirected, n_seeds=4, seed=5)
        b = paths.approx_diameter(tiny_undirected, n_seeds=4, seed=5)
        assert a == b
