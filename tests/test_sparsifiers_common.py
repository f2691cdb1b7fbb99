"""Contract tests every sparsifier must satisfy (Definition 1, Table 2):
output is a subgraph over the same vertex set, hits the target edge count
when prune-rate control allows, and matches its declared determinism."""
import hashlib

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


@pytest.mark.parametrize("ab", ALL)
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


# sha1 of the sorted (src, dst, weight) rows at rho=0.5, seed=3. ERw and
# ERu go through a dense pseudo-inverse that is not bit-stable across BLAS
# builds. On tiny_directed the similarity and Local Degree variants keep
# only edges whose head has out-edges, hence their shared hash. RN and KN
# were recorded after their draws moved from `F.rand` to `xxhash64`.
GOLDEN_EDGE_SETS = {
    ("RN", "undirected"): "1a91e8e4dbf9e332b0af03551fb9d382cf611d67",
    ("RN", "directed"): "4f4d3673445e3f78d78f143c9d3801ee09e64e96",
    ("KN", "undirected"): "137d70631cadbb7f0fe64734d235cbab6271eeaa",
    ("KN", "directed"): "a8cd8d2398633a43f5d620bafd648d4d8c80464d",
    ("LD", "undirected"): "516692446e0ff4254eff6f51fcc373ced2821d9d",
    ("LD", "directed"): "29a611e8a5d38e601592866e8c528ecfe7f35ee1",
    ("LS", "undirected"): "35ac418c0dc022ef9965ca62447199b6cdd45c08",
    ("LS", "directed"): "29a611e8a5d38e601592866e8c528ecfe7f35ee1",
    ("GS", "undirected"): "2fadc45da44b8512a59fbf54c76d530f60d439a5",
    ("GS", "directed"): "29a611e8a5d38e601592866e8c528ecfe7f35ee1",
    ("LSim", "undirected"): "bd07cbee64a0621a700c8cd5b5468889e18fb178",
    ("LSim", "directed"): "29a611e8a5d38e601592866e8c528ecfe7f35ee1",
    ("SCAN", "undirected"): "222dc39f46d1b7d47d4067f1d0e1eb6905f729ae",
    ("SCAN", "directed"): "29a611e8a5d38e601592866e8c528ecfe7f35ee1",
    ("SF", "undirected"): "6c07b8bd739b3b9d4fdd3d03b8a3de3e9cf061da",
    ("SP", "undirected"): "ef7a67950cf63119d9ab04c3676a9a7b06fa8d67",
    ("RD", "undirected"): "b6973f43e3c9b6eeddd97b743c66ec4c5fbcea51",
    ("RD", "directed"): "fd746529488d09e7b1d27df4a3e74c7275419854",
    ("FF", "undirected"): "7e4d5461e50dfd2cef67126a2dc746e6fdfdc807",
    ("FF", "directed"): "995950603f0d3883be03a7c018e444446afb6294",
}


def edge_digest(g: Graph) -> str:
    rows = sorted(g.to_pandas_edges()[["src", "dst", "weight"]].itertuples(index=False))
    text = "".join(f"{int(s)},{int(d)},{float(w)!r}\n" for s, d, w in rows)
    return hashlib.sha1(text.encode()).hexdigest()


@pytest.mark.parametrize("ab,kind", sorted(GOLDEN_EDGE_SETS))
def test_edge_sets_unchanged(tiny_undirected, tiny_directed, ab, kind):
    """A refactor of a sparsifier keeps every recorded edge set."""
    g = tiny_undirected if kind == "undirected" else tiny_directed
    h = SPARSIFIERS[ab](g, 0.5, seed=3)
    assert edge_digest(h) == GOLDEN_EDGE_SETS[(ab, kind)]


def test_registry_has_12_families():
    from repro.core.registry import FAMILY_COUNT

    names = {s.name for s in SPARSIFIERS.values()}
    # ER-weighted/ER-unweighted are variants of one algorithm (§3.2)
    families = {n.replace("ER-weighted", "ER").replace("ER-unweighted", "ER") for n in names}
    assert len(families) == FAMILY_COUNT == 12
