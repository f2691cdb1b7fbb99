"""One function per paper table/figure: the experiments of §4.

Each ``figNN_*`` function runs the figure's experiment — the workload,
the sparsifier subset the paper plots, the prune-rate sweep — and
returns the figure's numbers as tidy DataFrames (rows = sparsifier,
columns = prune rate), plus original-graph reference values where the
paper draws reference lines. ``jobs/`` are thin CLI wrappers around
these; ``benchmarks/`` time them at reduced settings; EXPERIMENTS.md
records their output against the paper's reported shapes.

Every figure panel is one :func:`_sweep`: a stand-in, a sparsifier
list, a statistic taken once of the original, and a comparison of each
sparsified graph with it, the paper's single full-graph ground truth
(§3.2). The top-k panels (5, 6, 7, 11) share :func:`_top_k`. Sampled
inputs (sources, pairs, test vectors) depend only on the vertex count
and the seed, which sparsifiers keep, so every graph draws the same.
"""
from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.experiment import run_sweep, sparsify_timed
from repro.core.graph import Graph
from repro.core.registry import METRICS, SPARSIFIERS
from repro.core.tables import pivot_sweep
from repro.graphs import datasets
from repro.gnn.data import make_node_data
from repro.gnn.train import empty_graph, eval_cluster_gcn, eval_graphsage
from repro.metrics import (
    betweenness, centrality, clustering, connectivity, degree, flow, paths, quadratic,
)

DEFAULT_RHOS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _sweep(
    spark: SparkSession, dataset: str, sparsifiers, stat: Callable[[datasets.Dataset], Any],
    score: Callable[[Any, Graph], Mapping[str, float]], *,
    scale: float, rhos, n_runs: int, seed: int,
) -> tuple[Any, pd.DataFrame]:
    """One sweep panel: load ``dataset``, take ``ref = stat(ds)`` of the
    original once (``ds`` is the loaded stand-in; Fig 13 reads its labels),
    and run the sweep with ``score(ref, h)`` as the metric of every
    sparsified graph ``h``. Returns ``(ref, run_sweep rows)``."""
    ds = datasets.load(spark, dataset, scale=scale, seed=seed)
    ref = stat(ds)
    res = run_sweep(
        ds.graph, sparsifiers, rhos, lambda h: score(ref, h), n_runs=n_runs, base_seed=seed
    )
    return ref, res


def _top_k(scores: Callable[[Graph], DataFrame], top_k: int, key: str):
    """``(stat, score)`` of a top-k precision panel (§3.3.3): the
    original's top-k vertex set is taken once, and each sparsified graph
    scores the share of it that its own top-k keeps."""

    def stat(ds: datasets.Dataset) -> tuple[set[int], int]:
        k = max(5, min(top_k, ds.graph.n // 4))  # the paper's 100, clamped on small graphs
        return centrality.top_k(scores(ds.graph), k), k

    def score(ref: tuple[set[int], int], h: Graph) -> dict[str, float]:
        top, k = ref
        return {key: centrality.top_k_precision(top, scores(h), k=k)}

    return stat, score


def _pivots(res: pd.DataFrame, suffix: str = "") -> dict[str, pd.DataFrame]:
    """The figure layout of every metric key in a sweep's rows, named ``key + suffix``."""
    fixed = {"sparsifier", "rho", "achieved_rho", "spar_time_s"}
    keys = [c for c in res.columns if c not in fixed and not c.endswith("_std")]
    return {k + suffix: pivot_sweep(res, k) for k in keys}


# ---------------------------------------------------------------- tables
def table1_metric_applicability() -> pd.DataFrame:
    """Table 1: metric applicability matrix from the registry."""
    rows = [
        {
            "Metric": m.name,
            "Directed": "yes" if m.directed else "no",
            "Weighted": "yes" if m.weighted else "weight not used",
            "Unconnected": "yes" if m.unconnected else "no",
            "Note": m.note,
        }
        for m in METRICS
    ]
    return pd.DataFrame(rows)


def table2_sparsifier_characteristics(
    spark: SparkSession, *, scale: float = 0.25, seed: int = 0
) -> pd.DataFrame:
    """Table 2: declared characteristics + empirical verification.

    On a probe graph, each sparsifier runs twice at rho=0.5 with the same
    seed (identical output = deterministic implementation is honest) and
    once with another seed; achieved prune rate and weight changes are
    measured from the outputs.
    """
    ds = datasets.load(spark, "astroph_lite", scale=scale, seed=seed)
    g = ds.graph
    orig_w = {
        (r["src"], r["dst"]): r["weight"] for r in g.symmetrized().edges.collect()
    }
    rows = []
    for ab, spec in SPARSIFIERS.items():
        h1, _ = sparsify_timed(spec, g, 0.5, seed=seed)
        h2, _ = sparsify_timed(spec, g, 0.5, seed=seed + 1)
        same_other_seed = (
            h1.edges.select("src", "dst").exceptAll(h2.edges.select("src", "dst")).count()
            == 0
            and h1.m == h2.m
        )
        changed = any(
            abs(orig_w.get((r["src"], r["dst"]), r["weight"]) - r["weight"]) > 1e-9
            for r in h1.edges.collect()
        )
        rows.append(
            {
                "Sparsifier": f"{spec.name} ({ab})",
                "PRC(declared)": spec.prune_rate_control,
                "rho=0.5 achieved": 1.0 - h1.m / g.m,
                "Deterministic(declared)": spec.deterministic,
                "SameOutputAcrossSeeds": same_other_seed,
                "WeightChange(declared)": spec.changes_weights,
                "WeightChange(measured)": changed,
                "Complexity": spec.complexity,
            }
        )
    return pd.DataFrame(rows)


def table3_datasets(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 0
) -> pd.DataFrame:
    """Table 3: the 14 stand-ins with measured stats."""
    rows = []
    for name in datasets.LOADERS:
        ds = datasets.load(spark, name, scale=scale, seed=seed)
        g = ds.graph
        pairs = g.n * (g.n - 1) if g.directed else g.n * (g.n - 1) / 2
        rows.append(
            {
                "Category": ds.category,
                "Name": ds.name,
                "Mimics": ds.mimics,
                "Directed": g.directed,
                "Weighted": g.weighted,
                "Connected": connectivity.is_connected(g),
                "#Nodes": g.n,
                "#Edges": g.m,
                "Density": g.m / pairs,
            }
        )
    return pd.DataFrame(rows)


# ------------------------------------------------------------- figure 1
FIG1_SPARSIFIERS = ["RN", "KN", "LD", "LSim", "ERu", "SF", "SP", "GS", "SCAN"]


def fig01_connectivity(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG1_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    dataset: str = "astroph_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 1: pair-unreachable and vertex-isolated ratio vs prune rate."""
    unreachable, res = _sweep(
        spark, dataset, sparsifiers, lambda ds: connectivity.unreachable_ratio(ds.graph),
        lambda _, h: {"unreachable": connectivity.unreachable_ratio(h),
                      "isolated": connectivity.isolated_ratio(h)},
        scale=scale, rhos=rhos, n_runs=n_runs, seed=seed,
    )
    ref = pd.DataFrame([{"unreachable": unreachable, "isolated": 0.0}])
    return {**_pivots(res), "raw": res, "original": ref}


# ------------------------------------------------------------- figure 2
FIG2_SPARSIFIERS = ["RN", "LD", "RD", "KN", "FF", "LSim"]


def fig02_degree_distribution(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG2_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    dataset: str = "proteins_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 2: Bhattacharyya distance of degree distributions (lower=better)."""
    _, res = _sweep(
        spark, dataset, sparsifiers, lambda ds: degree.degree_histogram(ds.graph),
        lambda p, h: {"bhattacharyya": degree.bhattacharyya(p, degree.degree_histogram(h))},
        scale=scale, rhos=rhos, n_runs=n_runs, seed=seed,
    )
    return {**_pivots(res), "raw": res}


# ------------------------------------------------------------- figure 3
FIG3_SPARSIFIERS = ["RN", "ERw", "ERu", "LD", "GS"]


def fig03_quadratic_form(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG3_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    dataset: str = "amazon_lite", k_vectors: int = 100,
) -> dict[str, pd.DataFrame]:
    """Fig 3: mean Laplacian quadratic form ratio (closer to 1 is better)."""

    def forms(g: Graph):
        vectors = quadratic.random_vectors(g.n, k_vectors, seed=seed)
        return quadratic.quadratic_forms(g, vectors)

    _, res = _sweep(
        spark, dataset, sparsifiers, lambda ds: forms(ds.graph),
        lambda qf0, h: {"qf_ratio": quadratic.quadratic_form_ratio(qf0, forms(h))},
        scale=scale, rhos=rhos, n_runs=n_runs, seed=seed,
    )
    return {**_pivots(res), "raw": res}


# ------------------------------------------------------------- figure 4
FIG4_SPARSIFIERS = ["RN", "LD", "RD", "LS", "ERu", "FF", "KN", "GS", "SCAN", "SF", "SP"]
FIG4C_SPARSIFIERS = ["RN", "LD", "RD", "GS", "SCAN", "LSim"]


def fig04_distance(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG4_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    n_sources: int = 12, diameter_seeds: int = 10,
    dataset_ab: str = "astroph_lite", dataset_c: str = "facebook_lite",
    diam_sparsifiers=FIG4C_SPARSIFIERS,
) -> dict[str, pd.DataFrame]:
    """Fig 4: (a) SPSP stretch, (b) eccentricity stretch, (c) diameter."""
    sweep = dict(scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    diameter = partial(paths.approx_diameter, n_seeds=diameter_seeds, seed=seed)

    def distances(g: Graph):
        sources = paths.sample_sources(g, n_sources, seed=seed)
        return paths.multi_source_distances(g, sources)

    def stretch(d0, h: Graph) -> dict[str, float]:
        d1 = distances(h)
        spsp, unreachable = paths.spsp_stretch(d0, d1)
        return {"spsp_stretch": spsp, "unreachable": unreachable,
                "ecc_stretch": paths.eccentricity_stretch(d0, d1)}

    _, res = _sweep(spark, dataset_ab, sparsifiers, lambda ds: distances(ds.graph), stretch,
                    **sweep)
    diam_orig, res_c = _sweep(
        spark, dataset_c, diam_sparsifiers, lambda ds: diameter(ds.graph),
        lambda _, h: {"diameter": diameter(h)}, **sweep,
    )
    return {
        **_pivots(res), **_pivots(res_c), "raw": res, "raw_diameter": res_c,
        "original": pd.DataFrame([{"diameter_full": diam_orig}]),
    }


# ------------------------------------------------------------- figure 5
FIG5_SPARSIFIERS = ["RN", "LD", "RD", "LS", "GS", "SCAN", "FF"]


def fig05_betweenness_closeness(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG5_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    n_sources: int = 16, top_k: int = 100,
    dataset_bet: str = "dblp_lite", dataset_clo: str = "astroph_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 5: top-k precision of betweenness (a) and closeness (b)."""
    sweep = dict(scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    sources = partial(paths.sample_sources, k=n_sources, seed=seed)
    _, res_b = _sweep(spark, dataset_bet, sparsifiers, *_top_k(
        lambda g: betweenness.betweenness_scores(g, sources=sources(g)), top_k,
        "betweenness_p",
    ), **sweep)
    _, res_c = _sweep(spark, dataset_clo, sparsifiers, *_top_k(
        lambda g: centrality.closeness_approx(g, sources=sources(g)), top_k, "closeness_p"
    ), **sweep)
    return {**_pivots(res_b), "raw_betweenness": res_b,
            **_pivots(res_c), "raw_closeness": res_c}


# ------------------------------------------------------------- figure 6
FIG6_SPARSIFIERS = ["RN", "RD", "LD", "FF", "KN"]


def fig06_eigenvector(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG6_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    top_k: int = 100, dataset: str = "enron_lite", iters: int = 40,
) -> dict[str, pd.DataFrame]:
    """Fig 6: eigenvector centrality top-k precision."""
    _, res = _sweep(spark, dataset, sparsifiers, *_top_k(
        lambda g: centrality.eigenvector_centrality(g, iters=iters), top_k, "eigenvector_p"
    ), scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    return {**_pivots(res), "raw": res}


# ------------------------------------------------------------- figure 7
FIG7_SPARSIFIERS = ["RN", "KN", "ERu", "LD", "RD", "FF"]


def fig07_katz(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG7_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    top_k: int = 100, dataset: str = "twitter_lite", iters: int = 30,
) -> dict[str, pd.DataFrame]:
    """Fig 7: Katz centrality top-k precision (directed graph)."""
    _, res = _sweep(spark, dataset, sparsifiers, *_top_k(
        lambda g: centrality.katz_centrality(g, iters=iters), top_k, "katz_p"
    ), scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    return {**_pivots(res), "raw": res}


# ------------------------------------------------------------- figure 8
FIG8_SPARSIFIERS = ["RN", "LD", "KN", "SF", "SP", "GS", "RD"]


def fig08_communities(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG8_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    dataset: str = "dblp_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 8: number of LPA communities vs prune rate."""
    ref, res = _sweep(
        spark, dataset, sparsifiers, lambda ds: clustering.num_communities(ds.graph),
        lambda _, h: {"communities": float(clustering.num_communities(h))},
        scale=scale, rhos=rhos, n_runs=n_runs, seed=seed,
    )
    ref = pd.DataFrame([{"communities_full": ref}])
    return {**_pivots(res), "raw": res, "original": ref}


# ------------------------------------------------------------- figure 9
FIG9_SPARSIFIERS = ["RN", "LD", "LSim", "SCAN", "GS", "SF", "KN"]


def fig09_clustering_coefficients(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG9_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    dataset_mcc: str = "amazon_lite", dataset_gcc: str = "gene_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 9: (a) mean and (b) global clustering coefficient vs rho."""
    sweep = dict(scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    mcc = clustering.mean_clustering_coefficient
    gcc = clustering.global_clustering_coefficient
    mcc_orig, res_m = _sweep(spark, dataset_mcc, sparsifiers, lambda ds: mcc(ds.graph),
                             lambda _, h: {"mcc": mcc(h)}, **sweep)
    gcc_orig, res_g = _sweep(spark, dataset_gcc, sparsifiers, lambda ds: gcc(ds.graph),
                             lambda _, h: {"gcc": gcc(h)}, **sweep)
    return {
        **_pivots(res_m), **_pivots(res_g), "raw_mcc": res_m, "raw_gcc": res_g,
        "original": pd.DataFrame([{"mcc_full": mcc_orig, "gcc_full": gcc_orig}]),
    }


# ------------------------------------------------------------ figure 10
FIG10_SPARSIFIERS = ["RN", "KN", "LD", "LS", "LSim", "ERu", "ERw", "GS", "SCAN"]


def fig10_clustering_f1(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG10_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    dataset: str = "hepph_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 10: clustering F1 similarity vs the original graph's clustering."""
    lpa = clustering.lpa_communities
    _, res = _sweep(
        spark, dataset, sparsifiers, lambda ds: lpa(ds.graph),
        lambda ref, h: {"f1": clustering.clustering_f1(lpa(h), ref, h.n)},
        scale=scale, rhos=rhos, n_runs=n_runs, seed=seed,
    )
    return {**_pivots(res), "raw": res}


# ------------------------------------------------------------ figure 11
FIG11A_SPARSIFIERS = ["RN", "KN", "ERu", "ERw", "LD", "GS", "SCAN", "RD"]
FIG11B_SPARSIFIERS = ["RN", "RD", "LD", "KN", "ERu", "ERw", "GS", "SCAN"]


def fig11_pagerank(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers_a=FIG11A_SPARSIFIERS, sparsifiers_b=FIG11B_SPARSIFIERS,
    n_runs: int = 2, seed: int = 0, top_k: int = 100,
    dataset_a: str = "google_lite", dataset_b: str = "facebook_lite",
    iters: int = 25,
) -> dict[str, pd.DataFrame]:
    """Fig 11: PageRank top-k precision on a directed web graph (a) and an
    undirected social graph (b)."""
    pair = _top_k(lambda g: centrality.pagerank(g, iters=iters), top_k, "pagerank_p")
    out: dict[str, pd.DataFrame] = {}
    for tag, name, sparsifiers in (
        ("a", dataset_a, sparsifiers_a), ("b", dataset_b, sparsifiers_b)
    ):
        _, res = _sweep(spark, name, sparsifiers, *pair,
                        scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
        out.update({**_pivots(res, f"_{tag}"), f"raw_{tag}": res})
    return out


# ------------------------------------------------------------ figure 12
FIG12_SPARSIFIERS = ["RN", "ERw", "ERu", "KN", "FF", "GS", "SCAN", "LD"]


def fig12_mincut_maxflow(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG12_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    n_pairs: int = 24, dataset: str = "hepph_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 12: mean max-flow stretch over sampled pairs (closer to 1 best)."""

    def flows(g: Graph):
        return flow.max_flow_values(g, flow.sample_pairs(g, n_pairs, seed=seed))

    def stretch(f0, h: Graph) -> dict[str, float]:
        ratio, zero_frac = flow.maxflow_stretch(f0, flows(h))
        return {"flow_stretch": ratio, "flow_zero_frac": zero_frac}

    _, res = _sweep(spark, dataset, sparsifiers, lambda ds: flows(ds.graph), stretch,
                    scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    return {**_pivots(res), "raw": res}


# ------------------------------------------------------------ figure 13
FIG13_SPARSIFIERS = ["RN", "LSim", "GS", "SCAN", "LD", "RD"]


def fig13_gnn(
    spark: SparkSession, *, scale: float = 1.0, rhos=(0.3, 0.6, 0.9),
    sparsifiers=FIG13_SPARSIFIERS, n_runs: int = 1, seed: int = 0,
    dataset_sage: str = "proteins_lite", dataset_cgcn: str = "reddit_lite",
    epochs_sage: int = 120, epochs_cgcn: int = 40, signal: float = 0.08,
) -> dict[str, pd.DataFrame]:
    """Fig 13: GraphSAGE (a) and ClusterGCN (b) trained on sparsified
    graphs, tested on the full graph; green/red reference lines included."""
    sweep = dict(scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)

    def trainer(evaluate, epochs: int):
        """A panel's ``stat``: train on a graph, test on the full graph; with
        the results of the full graph (green line) and of no edges (red)."""

        def stat(ds: datasets.Dataset):
            data = make_node_data(ds.labels, seed=seed, signal=signal)
            run = partial(evaluate, full_graph=ds.graph, data=data, seed=seed,
                          epochs=epochs)
            return run, run(ds.graph), run(empty_graph(ds.graph))

        return stat

    (_, full_a, mlp_a), res_a = _sweep(
        spark, dataset_sage, sparsifiers, trainer(eval_graphsage, epochs_sage),
        lambda ref, h: {"sage_auroc": (r := ref[0](h)).auroc, "sage_acc": r.accuracy},
        **sweep,
    )
    (_, full_b, mlp_b), res_b = _sweep(
        spark, dataset_cgcn, sparsifiers, trainer(eval_cluster_gcn, epochs_cgcn),
        lambda ref, h: {"cgcn_acc": (r := ref[0](h)).accuracy, "cgcn_auroc": r.auroc},
        **sweep,
    )
    ref = {
        "sage_full_auroc": full_a.auroc, "sage_mlp_auroc": mlp_a.auroc,
        "sage_full_acc": full_a.accuracy, "sage_mlp_acc": mlp_a.accuracy,
        "cgcn_full_acc": full_b.accuracy, "cgcn_mlp_acc": mlp_b.accuracy,
    }
    return {**_pivots(res_a), "raw_sage": res_a, **_pivots(res_b), "raw_cgcn": res_b,
            "original": pd.DataFrame([ref])}


# ------------------------------------------------------------ figure 14
FIG14_SPARSIFIERS = list(SPARSIFIERS)


def fig14_sparsification_time(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG14_SPARSIFIERS, n_runs: int = 1, seed: int = 0,
    dataset: str = "proteins_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 14: sparsification wall time per sparsifier and prune rate."""
    _, res = _sweep(spark, dataset, sparsifiers, lambda ds: None, lambda _, h: {},
                    scale=scale, rhos=rhos, n_runs=n_runs, seed=seed)
    return {"spar_time_s": pivot_sweep(res, "spar_time_s"), "raw": res}
