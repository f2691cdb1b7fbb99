"""Tests for the Laplacian quadratic form and degree-distribution metrics."""
import numpy as np
import pytest

from repro.core.registry import SPARSIFIERS
from repro.metrics import degree, quadratic


def _ratio(g, h, k_vectors):
    vecs = quadratic.random_vectors(g.n, k_vectors, seed=0)
    return quadratic.quadratic_form_ratio(
        quadratic.quadratic_forms(g, vecs), quadratic.quadratic_forms(h, vecs)
    )


class TestQuadraticForm:
    def test_matches_dense_laplacian(self, tiny_weighted):
        g = tiny_weighted
        vecs = quadratic.random_vectors(g.n, 5, seed=1)
        ours = quadratic.quadratic_forms(g, vecs)
        # dense reference
        L = np.zeros((g.n, g.n))
        for r in g.to_pandas_edges().itertuples():
            L[r.src, r.dst] -= r.weight
            L[r.dst, r.src] -= r.weight
            L[r.src, r.src] += r.weight
            L[r.dst, r.dst] += r.weight
        X = vecs.pivot(index="v", columns="vec", values="x").to_numpy()
        for k in range(5):
            assert ours.loc[k] == pytest.approx(X[:, k] @ L @ X[:, k], rel=1e-9)

    def test_ratio_identity(self, tiny_undirected):
        qf = quadratic.quadratic_forms(
            tiny_undirected, quadratic.random_vectors(tiny_undirected.n, 10, seed=0)
        )
        assert quadratic.quadratic_form_ratio(qf, qf) == pytest.approx(1.0)

    def test_er_weighted_preserves(self, tiny_undirected):
        """The Spielman-Srivastava estimator keeps the ratio near 1."""
        h = SPARSIFIERS["ERw"](tiny_undirected, 0.5, seed=0)
        assert abs(_ratio(tiny_undirected, h, 30) - 1.0) < 0.35

    def test_random_does_not_preserve(self, tiny_undirected):
        h = SPARSIFIERS["RN"](tiny_undirected, 0.5, seed=0)
        assert _ratio(tiny_undirected, h, 20) < 0.75  # roughly rho of the mass is gone

    def test_random_vectors_deterministic(self):
        a = quadratic.random_vectors(10, 3, seed=5)
        b = quadratic.random_vectors(10, 3, seed=5)
        assert (a.to_numpy() == b.to_numpy()).all()


class TestDegreeDistribution:
    def test_histogram_sums_to_one(self):
        h = degree.histogram(np.array([1, 2, 2, 3, 10]), bins=100)
        assert h.sum() == pytest.approx(1.0)

    def test_bhattacharyya_identity_zero(self):
        p = degree.histogram(np.array([1, 2, 3, 4]), bins=10)
        assert degree.bhattacharyya(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_bhattacharyya_symmetric(self):
        p = degree.histogram(np.array([1, 1, 2]), bins=10)
        q = degree.histogram(np.array([2, 3, 3]), bins=10)
        assert degree.bhattacharyya(p, q) == pytest.approx(degree.bhattacharyya(q, p))

    def test_bhattacharyya_disjoint_large(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert degree.bhattacharyya(p, q) > 100

    def test_distance_identity(self, tiny_undirected):
        p = degree.degree_histogram(tiny_undirected)
        assert degree.bhattacharyya(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_random_beats_local_degree(self, tiny_undirected):
        """The Fig 2 headline: uniform sampling preserves the shape better
        than degree-biased selection."""
        g = tiny_undirected
        rn = SPARSIFIERS["RN"](g, 0.6, seed=0)
        ld = SPARSIFIERS["LD"](g, 0.6, seed=0)
        p = degree.degree_histogram(g)
        assert degree.bhattacharyya(p, degree.degree_histogram(rn)) < (
            degree.bhattacharyya(p, degree.degree_histogram(ld))
        )

    def test_degree_counts_include_isolated(self, tiny_undirected):
        h = tiny_undirected.with_edges(tiny_undirected.edges.limit(1))
        counts = degree.degree_counts(h)
        assert len(counts) == tiny_undirected.n
        assert (counts == 0).sum() == tiny_undirected.n - 2
