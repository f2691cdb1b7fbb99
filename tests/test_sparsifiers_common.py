"""Contract tests every sparsifier must satisfy (Definition 1, Table 2):
output is a subgraph over the same vertex set, hits the target edge count
when prune-rate control allows, and matches its declared determinism."""
import pytest
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.registry import SPARSIFIERS
from repro.graphs import generators as gen

ALL = sorted(SPARSIFIERS)
CONTROLLED = [ab for ab in ALL if SPARSIFIERS[ab].prune_rate_control != "none"]
UNCONTROLLED = [ab for ab in ALL if SPARSIFIERS[ab].prune_rate_control == "none"]
DIRECTED_OK = [ab for ab in ALL if SPARSIFIERS[ab].supports_directed]


def edge_set(g):
    return set(map(tuple, g.to_pandas_edges()[["src", "dst"]].to_numpy()))


@pytest.mark.parametrize("ab", ALL)
def test_vertex_set_preserved(tiny_undirected, ab):
    h = SPARSIFIERS[ab](tiny_undirected, 0.5, seed=0)
    assert h.n == tiny_undirected.n


@pytest.mark.parametrize("ab", [a for a in ALL if not SPARSIFIERS[a].changes_weights])
def test_edges_are_subset(tiny_undirected, ab):
    h = SPARSIFIERS[ab](tiny_undirected, 0.5, seed=0)
    assert edge_set(h) <= edge_set(tiny_undirected)


def test_er_weighted_edges_subset_ignoring_weights(tiny_undirected):
    h = SPARSIFIERS["ERw"](tiny_undirected, 0.5, seed=0)
    assert edge_set(h) <= edge_set(tiny_undirected)


@pytest.mark.parametrize("ab", CONTROLLED)
@pytest.mark.parametrize("rho", [0.3, 0.7])
def test_prune_rate_achieved(tiny_undirected, ab, rho):
    g = tiny_undirected
    h = SPARSIFIERS[ab](g, rho, seed=0)
    target = (1 - rho) * g.m
    tolerance = 0.25 if SPARSIFIERS[ab].prune_rate_control == "coarse" else 0.05
    assert abs(h.m - target) <= max(2, tolerance * g.m), (ab, rho, h.m, target)


@pytest.mark.parametrize("ab", UNCONTROLLED)
def test_uncontrolled_reduce_edges(tiny_undirected, ab):
    h = SPARSIFIERS[ab](tiny_undirected, 0.0, seed=0)
    assert 0 < h.m < tiny_undirected.m


@pytest.mark.parametrize("ab", [a for a in ALL if SPARSIFIERS[a].deterministic])
def test_declared_deterministic(tiny_undirected, ab):
    h1 = SPARSIFIERS[ab](tiny_undirected, 0.5, seed=0)
    h2 = SPARSIFIERS[ab](tiny_undirected, 0.5, seed=99)
    assert edge_set(h1) == edge_set(h2)


@pytest.mark.parametrize("ab", [a for a in ALL if not SPARSIFIERS[a].deterministic])
def test_nondeterministic_seed_sensitivity(tiny_undirected, ab):
    """Different seeds should (overwhelmingly) give different subsets."""
    h1 = SPARSIFIERS[ab](tiny_undirected, 0.6, seed=0)
    h2 = SPARSIFIERS[ab](tiny_undirected, 0.6, seed=1)
    assert edge_set(h1) != edge_set(h2)


@pytest.mark.parametrize("ab", [a for a in ALL if not SPARSIFIERS[a].deterministic])
def test_same_seed_reproducible(tiny_undirected, ab):
    h1 = SPARSIFIERS[ab](tiny_undirected, 0.6, seed=5)
    h2 = SPARSIFIERS[ab](tiny_undirected, 0.6, seed=5)
    assert edge_set(h1) == edge_set(h2)


@pytest.mark.parametrize("ab", sorted(DIRECTED_OK))
def test_directed_support(tiny_directed, ab):
    h = SPARSIFIERS[ab](tiny_directed, 0.5, seed=0)
    assert h.directed
    assert edge_set(h) <= edge_set(tiny_directed)


@pytest.mark.parametrize("ab", sorted(set(ALL) - set(DIRECTED_OK)))
def test_undirected_only_symmetrize(tiny_directed, ab):
    """SF/SP/ER symmetrize directed inputs (paper §3.1) instead of failing."""
    h = SPARSIFIERS[ab](tiny_directed, 0.5, seed=0)
    assert not h.directed
    sym = set()
    for s, d in edge_set(tiny_directed):
        sym.add((min(s, d), max(s, d)))
    assert edge_set(h) <= sym


@pytest.mark.parametrize("ab", CONTROLLED)
def test_weighted_graph_support(tiny_weighted, ab):
    h = SPARSIFIERS[ab](tiny_weighted, 0.5, seed=0)
    assert h.m > 0
    assert edge_set(h) <= edge_set(tiny_weighted)


@pytest.mark.parametrize("ab", ["RN", "KN", "LD", "FF", "LSim"])
def test_disconnected_graph_support(tiny_disconnected, ab):
    h = SPARSIFIERS[ab](tiny_disconnected, 0.5, seed=0)
    assert edge_set(h) <= edge_set(tiny_disconnected)


@pytest.mark.parametrize("ab", [a for a in ALL if not SPARSIFIERS[a].changes_weights])
def test_weights_unchanged(tiny_weighted, ab):
    orig = {
        (r.src, r.dst): r.weight
        for r in tiny_weighted.symmetrized().to_pandas_edges().itertuples()
    }
    h = SPARSIFIERS[ab](tiny_weighted, 0.5, seed=0)
    for r in h.to_pandas_edges().itertuples():
        assert abs(orig[(r.src, r.dst)] - r.weight) < 1e-12


@pytest.fixture(scope="module")
def lazy_undirected(spark):
    """Uncached Holme-Kim graph, n=70: every action re-runs the
    canonicalising shuffle under the session's current partition count.

    Its edges differ from every cached fixture's, so Spark's cache cannot
    substitute a fixed partition layout for that shuffle.
    """
    pdf = gen.holme_kim(70, 3, 0.5, seed=17)
    return Graph.from_pandas(spark, pdf, directed=False, weighted=False, n=70, name="lazy_u")


PARTITION_DEPENDENT = pytest.mark.xfail(
    strict=True, reason="`F.rand` depends on partition layout, ROADMAP item 4"
)


@pytest.mark.parametrize(
    "ab",
    [pytest.param(a, marks=PARTITION_DEPENDENT) if a in ("RN", "KN") else a for a in ALL],
)
def test_partition_invariant(spark, lazy_undirected, ab):
    """One (graph, sparsifier, rho, seed) names one weighted edge set at 8
    and at 16 shuffle partitions."""
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    out = []
    try:
        for parts in ("8", "16"):
            spark.conf.set(key, parts)
            h = SPARSIFIERS[ab](lazy_undirected, 0.5, seed=3)
            out.append(set(map(tuple, h.to_pandas_edges().to_numpy())))
    finally:
        spark.conf.set(key, old)
    assert out[0] == out[1]


def test_registry_has_12_families():
    from repro.core.registry import FAMILY_COUNT

    names = {s.name for s in SPARSIFIERS.values()}
    # ER-weighted/ER-unweighted are variants of one algorithm (§3.2)
    families = {n.replace("ER-weighted", "ER").replace("ER-unweighted", "ER") for n in names}
    assert len(families) == FAMILY_COUNT == 12
