"""One benchmark per table and figure, each at reduced settings.

One pedantic round: these are end-to-end Spark experiment pipelines, not
microbenchmarks — the number of interest is the wall time of one full
(reduced-size) regeneration of the table.
"""
import pytest

from repro.core import figures

ONE_RUN = dict(n_runs=1, seed=0)
SETTINGS = {
    "fig01_connectivity": dict(
        scale=0.15, rhos=[0.3, 0.7], **ONE_RUN, sparsifiers=["RN", "KN", "LD", "GS"]
    ),
    "fig02_degree_distribution": dict(
        scale=0.15, rhos=[0.3, 0.7], **ONE_RUN, sparsifiers=["RN", "LD", "KN"]
    ),
    "fig03_quadratic_form": dict(
        scale=0.15, rhos=[0.3, 0.7], **ONE_RUN, sparsifiers=["RN", "ERw"], k_vectors=50
    ),
    "fig04_distance": dict(
        scale=0.12, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "LD"],
        diam_sparsifiers=["RN", "LD"], n_sources=6, diameter_seeds=4,
    ),
    "fig05_betweenness_closeness": dict(
        scale=0.12, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "LD"], n_sources=8, top_k=20
    ),
    "fig06_eigenvector": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "RD"], top_k=20, iters=25
    ),
    "fig07_katz": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "LD"], top_k=20, iters=20
    ),
    "fig08_communities": dict(scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "SF"]),
    "fig09_clustering_coefficients": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "LSim"]
    ),
    "fig10_clustering_f1": dict(scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "KN"]),
    "fig11_pagerank": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers_a=["RN", "ERu"],
        sparsifiers_b=["RN", "RD"], top_k=20, iters=15,
    ),
    "fig12_mincut_maxflow": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "ERw"], n_pairs=8
    ),
    "fig13_gnn": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "LD"],
        epochs_sage=40, epochs_cgcn=15,
    ),
    "fig14_sparsification_time": dict(
        scale=0.15, rhos=[0.5], **ONE_RUN, sparsifiers=["RN", "KN", "LD", "SF", "GS"]
    ),
    "table2_sparsifier_characteristics": dict(scale=0.1, seed=0),
    "table3_datasets": dict(scale=0.1, seed=0),
}
# Tables 2 and 3 have one row per sparsifier variant and per stand-in.
TABLE_ROWS = {"table2_sparsifier_characteristics": 13, "table3_datasets": 14}


@pytest.mark.parametrize("name", list(SETTINGS))
def test_figure(benchmark, spark, name):
    result = benchmark.pedantic(
        getattr(figures, name), args=(spark,), kwargs=SETTINGS[name], rounds=1, iterations=1
    )
    assert len(result) == TABLE_ROWS[name] if name in TABLE_ROWS else result


def test_table1(benchmark):
    assert len(benchmark(figures.table1_metric_applicability)) == 16
