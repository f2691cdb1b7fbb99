"""One function per paper table/figure: the experiments of §4.

Each ``figNN_*`` function runs the figure's experiment — the workload,
the sparsifier subset the paper plots, the prune-rate sweep — and
returns the figure's numbers as tidy DataFrames (rows = sparsifier,
columns = prune rate), plus original-graph reference values where the
paper draws reference lines. ``jobs/`` are thin CLI wrappers around
these; ``benchmarks/`` time them at reduced settings; EXPERIMENTS.md
records their output against the paper's reported shapes.

Sampled estimators precompute the original graph's side once per figure
(distances, centrality scores, reference clusterings) and reuse it for
every sparsified graph, exactly as the paper compares everything against
a single full-graph ground truth. The top-k precision figures (5, 6, 7,
11) keep only the original's top-k vertex set. ``datasets.load`` returns
each graph cached and counted.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.experiment import run_sweep, sparsify_timed
from repro.core.graph import Graph
from repro.core.registry import METRICS, SPARSIFIERS
from repro.core.tables import pivot_sweep
from repro.graphs import datasets
from repro.gnn.data import make_node_data
from repro.gnn.train import empty_graph, eval_cluster_gcn, eval_graphsage
from repro.metrics import (
    betweenness,
    centrality,
    clustering,
    connectivity,
    degree,
    flow,
    paths,
    quadratic,
)

DEFAULT_RHOS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _topk_for(g: Graph, k: int) -> int:
    """Paper uses top-100; clamp for small test-scale graphs."""
    return max(5, min(k, g.n // 4))


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
        g.edges.unpersist()
    return pd.DataFrame(rows)


# ------------------------------------------------------------- figure 1
FIG1_SPARSIFIERS = ["RN", "KN", "LD", "LSim", "ERu", "SF", "SP", "GS", "SCAN"]


def fig01_connectivity(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG1_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    dataset: str = "astroph_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 1: pair-unreachable and vertex-isolated ratio vs prune rate."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph

    def metric(h: Graph) -> dict[str, float]:
        return {
            "unreachable": connectivity.unreachable_ratio(h),
            "isolated": connectivity.isolated_ratio(h),
        }

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    ref = pd.DataFrame(
        [{"unreachable": connectivity.unreachable_ratio(g), "isolated": 0.0}]
    )
    return {
        "unreachable": pivot_sweep(res, "unreachable"),
        "isolated": pivot_sweep(res, "isolated"),
        "raw": res,
        "original": ref,
    }


# ------------------------------------------------------------- figure 2
FIG2_SPARSIFIERS = ["RN", "LD", "RD", "KN", "FF", "LSim"]


def fig02_degree_distribution(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG2_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    dataset: str = "proteins_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 2: Bhattacharyya distance of degree distributions (lower=better)."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    p = degree.degree_histogram(g)

    def metric(h: Graph) -> dict[str, float]:
        return {"bhattacharyya": degree.bhattacharyya(p, degree.degree_histogram(h))}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {"bhattacharyya": pivot_sweep(res, "bhattacharyya"), "raw": res}


# ------------------------------------------------------------- figure 3
FIG3_SPARSIFIERS = ["RN", "ERw", "ERu", "LD", "GS"]


def fig03_quadratic_form(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG3_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    dataset: str = "amazon_lite", k_vectors: int = 100,
) -> dict[str, pd.DataFrame]:
    """Fig 3: mean Laplacian quadratic form ratio (closer to 1 is better)."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    vectors = quadratic.random_vectors(g.n, k_vectors, seed=seed)
    qf0 = quadratic.quadratic_forms(g, vectors)

    def metric(h: Graph) -> dict[str, float]:
        qf1 = quadratic.quadratic_forms(h, vectors)
        return {"qf_ratio": quadratic.quadratic_form_ratio(qf0, qf1)}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {"qf_ratio": pivot_sweep(res, "qf_ratio"), "raw": res}


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
    g = datasets.load(spark, dataset_ab, scale=scale, seed=seed).graph
    sources = paths.sample_sources(g, n_sources, seed=seed)
    d0 = paths.multi_source_distances(g, sources)

    def metric(h: Graph) -> dict[str, float]:
        d1 = paths.multi_source_distances(h, sources)
        stretch, unreachable = paths.spsp_stretch(d0, d1)
        return {
            "spsp_stretch": stretch,
            "unreachable": unreachable,
            "ecc_stretch": paths.eccentricity_stretch(d0, d1),
        }

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)

    gc = datasets.load(spark, dataset_c, scale=scale, seed=seed).graph
    diam_orig = paths.approx_diameter(gc, n_seeds=diameter_seeds, seed=seed)

    def metric_diam(h: Graph) -> dict[str, float]:
        return {"diameter": paths.approx_diameter(h, n_seeds=diameter_seeds, seed=seed)}

    res_c = run_sweep(gc, diam_sparsifiers, rhos, metric_diam, n_runs=n_runs, base_seed=seed)
    return {
        "spsp_stretch": pivot_sweep(res, "spsp_stretch"),
        "unreachable": pivot_sweep(res, "unreachable"),
        "ecc_stretch": pivot_sweep(res, "ecc_stretch"),
        "diameter": pivot_sweep(res_c, "diameter"),
        "raw": res,
        "raw_diameter": res_c,
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
    outputs: dict[str, pd.DataFrame] = {}

    g_b = datasets.load(spark, dataset_bet, scale=scale, seed=seed).graph
    k_b = _topk_for(g_b, top_k)
    sources_b = paths.sample_sources(g_b, n_sources, seed=seed)
    ref_b = centrality.top_k(
        betweenness.betweenness_scores(g_b, sources=sources_b), k_b
    )

    def metric_b(h: Graph) -> dict[str, float]:
        sc = betweenness.betweenness_scores(h, sources=sources_b)
        return {"betweenness_p": centrality.top_k_precision(ref_b, sc, k=k_b)}

    res_b = run_sweep(g_b, sparsifiers, rhos, metric_b, n_runs=n_runs, base_seed=seed)
    outputs["betweenness_p"] = pivot_sweep(res_b, "betweenness_p")
    outputs["raw_betweenness"] = res_b

    g_c = datasets.load(spark, dataset_clo, scale=scale, seed=seed).graph
    k_c = _topk_for(g_c, top_k)
    sources_c = paths.sample_sources(g_c, n_sources, seed=seed)
    ref_c = centrality.top_k(centrality.closeness_approx(g_c, sources=sources_c), k_c)

    def metric_c(h: Graph) -> dict[str, float]:
        sc = centrality.closeness_approx(h, sources=sources_c)
        return {"closeness_p": centrality.top_k_precision(ref_c, sc, k=k_c)}

    res_c = run_sweep(g_c, sparsifiers, rhos, metric_c, n_runs=n_runs, base_seed=seed)
    outputs["closeness_p"] = pivot_sweep(res_c, "closeness_p")
    outputs["raw_closeness"] = res_c
    return outputs


# ------------------------------------------------------------- figure 6
FIG6_SPARSIFIERS = ["RN", "RD", "LD", "FF", "KN"]


def fig06_eigenvector(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG6_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    top_k: int = 100, dataset: str = "enron_lite", iters: int = 40,
) -> dict[str, pd.DataFrame]:
    """Fig 6: eigenvector centrality top-k precision."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    k = _topk_for(g, top_k)
    ref = centrality.top_k(centrality.eigenvector_centrality(g, iters=iters), k)

    def metric(h: Graph) -> dict[str, float]:
        sc = centrality.eigenvector_centrality(h, iters=iters)
        return {"eigenvector_p": centrality.top_k_precision(ref, sc, k=k)}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {"eigenvector_p": pivot_sweep(res, "eigenvector_p"), "raw": res}


# ------------------------------------------------------------- figure 7
FIG7_SPARSIFIERS = ["RN", "KN", "ERu", "LD", "RD", "FF"]


def fig07_katz(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG7_SPARSIFIERS, n_runs: int = 3, seed: int = 0,
    top_k: int = 100, dataset: str = "twitter_lite", iters: int = 30,
) -> dict[str, pd.DataFrame]:
    """Fig 7: Katz centrality top-k precision (directed graph)."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    k = _topk_for(g, top_k)
    ref = centrality.top_k(centrality.katz_centrality(g, iters=iters), k)

    def metric(h: Graph) -> dict[str, float]:
        sc = centrality.katz_centrality(h, iters=iters)
        return {"katz_p": centrality.top_k_precision(ref, sc, k=k)}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {"katz_p": pivot_sweep(res, "katz_p"), "raw": res}


# ------------------------------------------------------------- figure 8
FIG8_SPARSIFIERS = ["RN", "LD", "KN", "SF", "SP", "GS", "RD"]


def fig08_communities(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG8_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    dataset: str = "dblp_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 8: number of LPA communities vs prune rate."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    ref = clustering.num_communities(g)

    def metric(h: Graph) -> dict[str, float]:
        return {"communities": float(clustering.num_communities(h))}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {
        "communities": pivot_sweep(res, "communities"),
        "raw": res,
        "original": pd.DataFrame([{"communities_full": ref}]),
    }


# ------------------------------------------------------------- figure 9
FIG9_SPARSIFIERS = ["RN", "LD", "LSim", "SCAN", "GS", "SF", "KN"]


def fig09_clustering_coefficients(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG9_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    dataset_mcc: str = "amazon_lite", dataset_gcc: str = "gene_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 9: (a) mean and (b) global clustering coefficient vs rho."""
    g_m = datasets.load(spark, dataset_mcc, scale=scale, seed=seed).graph
    mcc_orig = clustering.mean_clustering_coefficient(g_m)

    def metric_m(h: Graph) -> dict[str, float]:
        return {"mcc": clustering.mean_clustering_coefficient(h)}

    res_m = run_sweep(g_m, sparsifiers, rhos, metric_m, n_runs=n_runs, base_seed=seed)

    g_g = datasets.load(spark, dataset_gcc, scale=scale, seed=seed).graph
    gcc_orig = clustering.global_clustering_coefficient(g_g)

    def metric_g(h: Graph) -> dict[str, float]:
        return {"gcc": clustering.global_clustering_coefficient(h)}

    res_g = run_sweep(g_g, sparsifiers, rhos, metric_g, n_runs=n_runs, base_seed=seed)
    return {
        "mcc": pivot_sweep(res_m, "mcc"),
        "gcc": pivot_sweep(res_g, "gcc"),
        "raw_mcc": res_m,
        "raw_gcc": res_g,
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
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    ref_labels = clustering.lpa_communities(g)

    def metric(h: Graph) -> dict[str, float]:
        lab = clustering.lpa_communities(h)
        return {"f1": clustering.clustering_f1(lab, ref_labels, g.n)}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {"f1": pivot_sweep(res, "f1"), "raw": res}


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
    out: dict[str, pd.DataFrame] = {}
    for tag, name, sparsifiers in (
        ("a", dataset_a, sparsifiers_a),
        ("b", dataset_b, sparsifiers_b),
    ):
        g = datasets.load(spark, name, scale=scale, seed=seed).graph
        k = _topk_for(g, top_k)
        ref = centrality.top_k(centrality.pagerank(g, iters=iters), k)

        def metric(h: Graph, _ref=ref, _k=k) -> dict[str, float]:
            sc = centrality.pagerank(h, iters=iters)
            return {"pagerank_p": centrality.top_k_precision(_ref, sc, k=_k)}

        res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
        out[f"pagerank_p_{tag}"] = pivot_sweep(res, "pagerank_p")
        out[f"raw_{tag}"] = res
    return out


# ------------------------------------------------------------ figure 12
FIG12_SPARSIFIERS = ["RN", "ERw", "ERu", "KN", "FF", "GS", "SCAN", "LD"]


def fig12_mincut_maxflow(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG12_SPARSIFIERS, n_runs: int = 2, seed: int = 0,
    n_pairs: int = 24, dataset: str = "hepph_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 12: mean max-flow stretch over sampled pairs (closer to 1 best)."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph
    pairs = flow.sample_pairs(g, n_pairs, seed=seed)
    f0 = flow.max_flow_values(g, pairs)

    def metric(h: Graph) -> dict[str, float]:
        stretch, zero_frac = flow.maxflow_stretch(f0, flow.max_flow_values(h, pairs))
        return {"flow_stretch": stretch, "flow_zero_frac": zero_frac}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {
        "flow_stretch": pivot_sweep(res, "flow_stretch"),
        "flow_zero_frac": pivot_sweep(res, "flow_zero_frac"),
        "raw": res,
    }


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
    out: dict[str, pd.DataFrame] = {}

    ds_a = datasets.load(spark, dataset_sage, scale=scale, seed=seed)
    data_a = make_node_data(ds_a.labels, seed=seed, signal=signal)
    full_a = eval_graphsage(ds_a.graph, ds_a.graph, data_a, seed=seed, epochs=epochs_sage)
    mlp_a = eval_graphsage(
        empty_graph(ds_a.graph), ds_a.graph, data_a, seed=seed, epochs=epochs_sage
    )

    def metric_a(h: Graph) -> dict[str, float]:
        r = eval_graphsage(h, ds_a.graph, data_a, seed=seed, epochs=epochs_sage)
        return {"sage_auroc": r.auroc, "sage_acc": r.accuracy}

    res_a = run_sweep(ds_a.graph, sparsifiers, rhos, metric_a, n_runs=n_runs, base_seed=seed)
    out["sage_auroc"] = pivot_sweep(res_a, "sage_auroc")
    out["sage_acc"] = pivot_sweep(res_a, "sage_acc")
    out["raw_sage"] = res_a

    ds_b = datasets.load(spark, dataset_cgcn, scale=scale, seed=seed)
    data_b = make_node_data(ds_b.labels, seed=seed, signal=signal)
    full_b = eval_cluster_gcn(ds_b.graph, ds_b.graph, data_b, seed=seed, epochs=epochs_cgcn)
    mlp_b = eval_cluster_gcn(
        empty_graph(ds_b.graph), ds_b.graph, data_b, seed=seed, epochs=epochs_cgcn
    )

    def metric_b(h: Graph) -> dict[str, float]:
        r = eval_cluster_gcn(h, ds_b.graph, data_b, seed=seed, epochs=epochs_cgcn)
        return {"cgcn_acc": r.accuracy, "cgcn_auroc": r.auroc}

    res_b = run_sweep(ds_b.graph, sparsifiers, rhos, metric_b, n_runs=n_runs, base_seed=seed)
    out["cgcn_acc"] = pivot_sweep(res_b, "cgcn_acc")
    out["cgcn_auroc"] = pivot_sweep(res_b, "cgcn_auroc")
    out["raw_cgcn"] = res_b
    out["original"] = pd.DataFrame(
        [
            {
                "sage_full_auroc": full_a.auroc, "sage_mlp_auroc": mlp_a.auroc,
                "sage_full_acc": full_a.accuracy, "sage_mlp_acc": mlp_a.accuracy,
                "cgcn_full_acc": full_b.accuracy, "cgcn_mlp_acc": mlp_b.accuracy,
            }
        ]
    )
    return out


# ------------------------------------------------------------ figure 14
FIG14_SPARSIFIERS = list(SPARSIFIERS)


def fig14_sparsification_time(
    spark: SparkSession, *, scale: float = 1.0, rhos=DEFAULT_RHOS,
    sparsifiers=FIG14_SPARSIFIERS, n_runs: int = 1, seed: int = 0,
    dataset: str = "proteins_lite",
) -> dict[str, pd.DataFrame]:
    """Fig 14: sparsification wall time per sparsifier and prune rate."""
    g = datasets.load(spark, dataset, scale=scale, seed=seed).graph

    def metric(h: Graph) -> dict[str, float]:
        return {}

    res = run_sweep(g, sparsifiers, rhos, metric, n_runs=n_runs, base_seed=seed)
    return {"spar_time_s": pivot_sweep(res, "spar_time_s"), "raw": res}
