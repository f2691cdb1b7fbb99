"""Tests for the Dinic max-flow substrate against networkx."""
import networkx as nx
import numpy as np
import pytest

from repro.metrics import flow
from tests.conftest import to_nx


class TestDinic:
    @pytest.mark.parametrize("fixture", ["tiny_undirected", "tiny_weighted"])
    def test_matches_networkx_undirected(self, request, fixture):
        g = request.getfixturevalue(fixture)
        G = to_nx(g)
        pairs = flow.sample_pairs(g, 5, seed=1)
        ours = flow.max_flow_values(g, pairs)
        for (s, t), f in zip(pairs, ours):
            assert f == pytest.approx(nx.maximum_flow_value(G, s, t), abs=1e-9)

    def test_matches_networkx_directed(self, tiny_directed):
        g = tiny_directed
        G = to_nx(g)
        pairs = flow.sample_pairs(g, 5, seed=2)
        ours = flow.max_flow_values(g, pairs)
        for (s, t), f in zip(pairs, ours):
            assert f == pytest.approx(nx.maximum_flow_value(G, s, t), abs=1e-9)

    def test_disconnected_pair_zero(self, tiny_disconnected):
        # vertices 0 (component A) and 55 (component B)
        assert flow.max_flow_values(tiny_disconnected, [(0, 55)])[0] == 0.0

    def test_path_graph_bottleneck(self, path_graph):
        assert flow.max_flow_values(path_graph, [(0, 9)])[0] == 1.0

    def test_star_flow(self, star_graph):
        # leaf -> leaf passes through the hub: min(1, 1) = 1
        assert flow.max_flow_values(star_graph, [(1, 2)])[0] == 1.0

    def test_complete_graph(self, complete_graph):
        # K6 with unit capacities: max flow between any pair = 5
        assert flow.max_flow_values(complete_graph, [(0, 3)])[0] == 5.0


class TestSamplePairs:
    def test_deterministic(self, tiny_undirected):
        assert flow.sample_pairs(tiny_undirected, 6, seed=3) == flow.sample_pairs(
            tiny_undirected, 6, seed=3
        )

    def test_no_self_pairs(self, tiny_undirected):
        assert all(s != t for s, t in flow.sample_pairs(tiny_undirected, 20, seed=4))


class TestMaxflowStretch:
    def test_identity(self, tiny_undirected):
        pairs = flow.sample_pairs(tiny_undirected, 4, seed=0)
        f = flow.max_flow_values(tiny_undirected, pairs)
        stretch, zero = flow.maxflow_stretch(f, f)
        assert stretch == pytest.approx(1.0)
        assert zero == 0.0

    def test_sparsified_leq_one(self, tiny_undirected):
        from repro.core.registry import SPARSIFIERS

        h = SPARSIFIERS["RN"](tiny_undirected, 0.5, seed=0)
        pairs = flow.sample_pairs(tiny_undirected, 4, seed=0)
        stretch, _ = flow.maxflow_stretch(
            flow.max_flow_values(tiny_undirected, pairs), flow.max_flow_values(h, pairs)
        )
        assert stretch <= 1.0 + 1e-9

    def test_disconnected_pairs_excluded(self, tiny_disconnected):
        g = tiny_disconnected
        pairs = [(0, 55), (0, 1)]  # first crosses components (flow 0)
        f = flow.max_flow_values(g, pairs)
        stretch, zero = flow.maxflow_stretch(f, f)
        assert stretch == pytest.approx(1.0)  # only the valid pair counts

    def test_newly_zero_pairs_leave_the_mean(self):
        f0 = np.array([0.0, 2.0, 4.0, 3.0])
        f1 = np.array([1.0, 1.0, 0.0, 3.0])
        stretch, zero = flow.maxflow_stretch(f0, f1)
        assert stretch == pytest.approx((0.5 + 1.0) / 2)
        assert zero == pytest.approx(1 / 3)
