"""Tests for the NumPy GNN substrate: aggregator algebra, gradient
correctness, training behaviour, AUROC."""
import numpy as np
import pytest

from repro.gnn import models
from repro.gnn.data import make_node_data


@pytest.fixture(scope="module")
def small_edges():
    rng = np.random.default_rng(0)
    src = rng.integers(0, 20, 60)
    dst = rng.integers(0, 20, 60)
    keep = src != dst
    return src[keep], dst[keep]


class TestMeanAggregator:
    def test_matches_dense(self, small_edges):
        src, dst = small_edges
        n = 20
        agg = models.MeanAggregator(src, dst, n, directed=True)
        A = np.zeros((n, n))
        for u, v in zip(src, dst):
            A[v, u] += 1.0  # row v aggregates from in-neighbor u
        deg = A.sum(axis=1, keepdims=True)
        An = np.divide(A, deg, out=np.zeros_like(A), where=deg > 0)
        H = np.random.default_rng(1).standard_normal((n, 4))
        assert np.allclose(agg(H), An @ H)

    def test_transpose_matches_dense(self, small_edges):
        src, dst = small_edges
        n = 20
        agg = models.MeanAggregator(src, dst, n, directed=True)
        A = np.zeros((n, n))
        for u, v in zip(src, dst):
            A[v, u] += 1.0
        deg = A.sum(axis=1, keepdims=True)
        An = np.divide(A, deg, out=np.zeros_like(A), where=deg > 0)
        H = np.random.default_rng(2).standard_normal((n, 3))
        assert np.allclose(agg.transpose(H), An.T @ H)

    def test_undirected_symmetrizes(self):
        agg = models.MeanAggregator(
            np.array([0]), np.array([1]), 3, directed=False
        )
        H = np.eye(3)
        out = agg(H)
        assert out[0, 1] == 1.0 and out[1, 0] == 1.0 and out[2].sum() == 0.0

    def test_self_loops(self):
        agg = models.MeanAggregator(
            np.array([0]), np.array([1]), 2, directed=False, self_loops=True
        )
        H = np.array([[1.0], [3.0]])
        out = agg(H)
        assert out[0, 0] == pytest.approx(2.0)  # mean(self=1, nbr=3)

    def test_empty_graph_zero(self):
        agg = models.MeanAggregator(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4, directed=False
        )
        assert np.allclose(agg(np.ones((4, 2))), 0.0)


class TestGradients:
    def _num_grad(self, f, p, eps=1e-6):
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            i = it.multi_index
            old = p[i]
            p[i] = old + eps
            lp = f()
            p[i] = old - eps
            lm = f()
            p[i] = old
            g[i] = (lp - lm) / (2 * eps)
            it.iternext()
        return g

    @pytest.mark.parametrize("gcn,seed", [(False, 3), (True, 4)], ids=["sage", "gcn"])
    def test_backward_numerical(self, small_edges, gcn, seed):
        src, dst = small_edges
        rng = np.random.default_rng(seed)
        n, f, c = 20, 3, 2
        x = rng.standard_normal((n, f))
        y = rng.integers(0, c, n)
        mask = np.ones(n, dtype=bool)
        agg = models.MeanAggregator(src, dst, n, directed=False, self_loops=gcn)
        p = models.init(f, 4, c, gcn=gcn, seed=0)

        def loss():
            logits, _ = models.forward(p, x, agg)
            l, _ = models.cross_entropy_grad(logits, y, mask)
            return l

        logits, cache = models.forward(p, x, agg)
        _, dlogits = models.cross_entropy_grad(logits, y, mask)
        grads = models.backward(p, cache, dlogits, agg)
        assert len(grads) == len(p.as_list()) == (4 if gcn else 6)
        for param, grad in zip(p.as_list(), grads):
            num = self._num_grad(loss, param)
            assert np.abs(grad - num).max() < 1e-4

    @pytest.mark.filterwarnings("error")
    def test_empty_mask_zero_loss_and_gradient(self):
        logits = np.random.default_rng(5).standard_normal((6, 3))
        y = np.zeros(6, dtype=np.int64)
        loss, d = models.cross_entropy_grad(logits, y, np.zeros(6, dtype=bool))
        assert loss == 0.0
        assert d.shape == logits.shape and not d.any()


class TestTraining:
    def test_sage_learns_sbm(self):
        from repro.graphs.generators import sbm

        edges, labels = sbm(150, 3, avg_deg_in=10, avg_deg_out=1, seed=0)
        data = make_node_data(labels, seed=0, signal=0.3)
        src = edges["src"].to_numpy()
        dst = edges["dst"].to_numpy()
        agg = models.MeanAggregator(src, dst, 150, directed=False)
        p = models.train(
            data.x, data.y, data.train_mask, [(np.arange(150), agg)], gcn=False, epochs=120, seed=0
        )
        logits, _ = models.forward(p, data.x, agg)
        acc = models.accuracy(logits, data.y, data.test_mask)
        assert acc > 0.7

    def test_graph_beats_empty(self):
        """The green-above-red property of Fig 13 on a weak-feature SBM."""
        from repro.graphs.generators import sbm

        edges, labels = sbm(200, 4, avg_deg_in=12, avg_deg_out=1, seed=1)
        data = make_node_data(labels, seed=1, signal=0.18)
        src, dst = edges["src"].to_numpy(), edges["dst"].to_numpy()
        agg_full = models.MeanAggregator(src, dst, 200, directed=False)
        agg_empty = models.MeanAggregator(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 200, directed=False
        )

        def trained_accuracy(agg):
            p = models.train(
                data.x, data.y, data.train_mask, [(np.arange(200), agg)], gcn=False,
                epochs=120, seed=0,
            )
            return models.accuracy(models.forward(p, data.x, agg)[0], data.y, data.test_mask)

        acc_full, acc_empty = trained_accuracy(agg_full), trained_accuracy(agg_empty)
        assert acc_full > acc_empty + 0.05

    def test_cluster_gcn_learns(self):
        from repro.graphs.generators import sbm

        edges, labels = sbm(150, 3, avg_deg_in=10, avg_deg_out=1, seed=2)
        data = make_node_data(labels, seed=2, signal=0.3)
        src, dst = edges["src"].to_numpy(), edges["dst"].to_numpy()
        batches = models.cluster_batches(src, dst, labels, directed=False, n_batches=3, seed=0)
        p = models.train(data.x, data.y, data.train_mask, batches, gcn=True, epochs=60, seed=0)
        agg = models.MeanAggregator(src, dst, 150, directed=False, self_loops=True)
        logits, _ = models.forward(p, data.x, agg)
        assert models.accuracy(logits, data.y, data.test_mask) > 0.6


class TestAuroc:
    def test_perfect_classifier(self):
        y = np.array([0, 0, 1, 1])
        logits = np.array([[5.0, 0], [4, 0], [0, 5], [0, 4]])
        assert models.macro_auroc(logits, y, np.ones(4, bool)) == pytest.approx(1.0)

    def test_random_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 2000)
        logits = rng.standard_normal((2000, 2))
        auc = models.macro_auroc(logits, y, np.ones(2000, bool))
        assert abs(auc - 0.5) < 0.05

    def test_inverted_classifier_zero(self):
        y = np.array([0, 0, 1, 1])
        logits = np.array([[0.0, 5], [0, 4], [5, 0], [4, 0]])
        assert models.macro_auroc(logits, y, np.ones(4, bool)) == pytest.approx(0.0)


class TestNodeData:
    def test_split_partition(self):
        labels = np.random.default_rng(0).integers(0, 4, 100)
        d = make_node_data(labels, seed=0)
        total = d.train_mask.astype(int) + d.val_mask.astype(int) + d.test_mask.astype(int)
        assert (total == 1).all()

    def test_deterministic(self):
        labels = np.zeros(50, dtype=np.int64)
        a = make_node_data(labels, seed=3)
        b = make_node_data(labels, seed=3)
        assert np.allclose(a.x, b.x)
        assert (a.train_mask == b.train_mask).all()

    def test_signal_separates_classes(self):
        labels = np.repeat([0, 1], 50)
        d = make_node_data(labels, seed=0, signal=5.0)
        mean0 = d.x[labels == 0].mean(axis=0)
        mean1 = d.x[labels == 1].mean(axis=0)
        assert np.linalg.norm(mean0 - mean1) > 5
