"""Integration tests: every table/figure experiment runs end-to-end at
minimal settings and produces well-formed, sane numbers."""
import inspect

import numpy as np
import pandas as pd
import pytest

from repro.core import figures

SMALL = dict(scale=0.1, rhos=[0.5], n_runs=1, seed=0)


def _pivot_ok(df: pd.DataFrame, lo=None, hi=None):
    assert "sparsifier" in df.columns
    vals = df.drop(columns="sparsifier").to_numpy(dtype=float)
    finite = vals[np.isfinite(vals)]
    assert finite.size > 0
    if lo is not None:
        assert (finite >= lo - 1e-9).all()
    if hi is not None:
        assert (finite <= hi + 1e-9).all()


class TestTables:
    def test_table1(self):
        df = figures.table1_metric_applicability()
        assert len(df) == 16

    def test_table2(self, spark):
        df = figures.table2_sparsifier_characteristics(spark, scale=0.1, seed=0)
        assert len(df) == 13
        # empirical determinism must match the declaration
        assert (df["Deterministic(declared)"] == df["SameOutputAcrossSeeds"]).all()
        # only ER-weighted changes weights
        assert df[df["WeightChange(measured)"]]["Sparsifier"].tolist() == [
            "ER-weighted (ERw)"
        ]

    def test_table3(self, spark):
        df = figures.table3_datasets(spark, scale=0.1, seed=0)
        assert len(df) == 14
        assert (df["#Edges"] > 0).all()
        assert (df["Density"] > 0).all()
        # connectivity flags come out as measured booleans
        assert df.set_index("Name").loc["facebook_lite", "Connected"]


# RN at rho=0 keeps every edge, so each figure's metric must report the
# value of a graph compared with itself: {raw frame: {column: value}}, where
# a string value names the column of ``out["original"]`` that holds it.
IDENTITY = [
    ("fig01_connectivity", {}, {"raw": {"unreachable": "unreachable", "isolated": 0.0}}),
    ("fig02_degree_distribution", {}, {"raw": {"bhattacharyya": 0.0}}),
    ("fig03_quadratic_form", {"k_vectors": 10}, {"raw": {"qf_ratio": 1.0}}),
    (
        "fig04_distance",
        {"n_sources": 4, "diameter_seeds": 2, "diam_sparsifiers": ["RN"]},
        {
            "raw": {"spsp_stretch": 1.0, "ecc_stretch": 1.0, "unreachable": 0.0},
            "raw_diameter": {"diameter": "diameter_full"},
        },
    ),
    (
        "fig05_betweenness_closeness",
        {"n_sources": 6, "top_k": 10},
        {"raw_betweenness": {"betweenness_p": 1.0}, "raw_closeness": {"closeness_p": 1.0}},
    ),
    ("fig06_eigenvector", {"top_k": 10, "iters": 20}, {"raw": {"eigenvector_p": 1.0}}),
    ("fig07_katz", {"top_k": 10, "iters": 15}, {"raw": {"katz_p": 1.0}}),
    ("fig08_communities", {}, {"raw": {"communities": "communities_full"}}),
    (
        "fig09_clustering_coefficients",
        {},
        {"raw_mcc": {"mcc": "mcc_full"}, "raw_gcc": {"gcc": "gcc_full"}},
    ),
    ("fig10_clustering_f1", {}, {"raw": {"f1": 1.0}}),
    (
        "fig11_pagerank",
        {"top_k": 10, "iters": 10},
        {"raw_a": {"pagerank_p": 1.0}, "raw_b": {"pagerank_p": 1.0}},
    ),
    (
        "fig12_mincut_maxflow",
        {"dataset": "google_lite"},  # directed
        {"raw": {"flow_stretch": 1.0, "flow_zero_frac": 0.0}},
    ),
]


@pytest.mark.parametrize(
    "fig,kwargs,expected", IDENTITY, ids=[fig[:5] for fig, _, _ in IDENTITY]
)
def test_identity_sparsifier_scores_as_original(spark, fig, kwargs, expected):
    figure = getattr(figures, fig)
    lists = {p: ["RN"] for p in inspect.signature(figure).parameters
             if p.startswith("sparsifiers")}
    out = figure(spark, scale=0.1, rhos=[0.0], n_runs=1, seed=0, **lists, **kwargs)
    for raw, values in expected.items():
        row = out[raw].iloc[0]
        assert row["achieved_rho"] == 0.0
        for key, value in values.items():
            if isinstance(value, str):
                value = out["original"][value].iloc[0]
            assert row[key] == pytest.approx(value, abs=1e-9), (raw, key)


class TestFigures:
    def test_fig01(self, spark):
        out = figures.fig01_connectivity(spark, sparsifiers=["RN", "LD"], **SMALL)
        _pivot_ok(out["unreachable"], 0, 1)
        _pivot_ok(out["isolated"], 0, 1)

    def test_fig02(self, spark):
        out = figures.fig02_degree_distribution(spark, sparsifiers=["RN", "LD"], **SMALL)
        _pivot_ok(out["bhattacharyya"], 0)

    def test_fig03(self, spark):
        out = figures.fig03_quadratic_form(
            spark, sparsifiers=["RN", "ERw"], k_vectors=20, **SMALL
        )
        _pivot_ok(out["qf_ratio"], 0, 2)
        p = out["qf_ratio"].set_index("sparsifier")
        # the Fig 3 headline: ERw stays near 1, RN falls to ~1-rho
        assert abs(p.loc["ERw"].iloc[0] - 1.0) < abs(p.loc["RN"].iloc[0] - 1.0)

    def test_fig04(self, spark):
        out = figures.fig04_distance(
            spark, sparsifiers=["RN", "LD"], diam_sparsifiers=["RN", "LD"],
            n_sources=4, diameter_seeds=3, **SMALL
        )
        _pivot_ok(out["spsp_stretch"], 1.0)
        _pivot_ok(out["ecc_stretch"], 0)
        _pivot_ok(out["diameter"], 0)

    def test_fig05(self, spark):
        out = figures.fig05_betweenness_closeness(
            spark, sparsifiers=["RN", "LD"], n_sources=6, top_k=10, **SMALL
        )
        _pivot_ok(out["betweenness_p"], 0, 1)
        _pivot_ok(out["closeness_p"], 0, 1)

    def test_fig06(self, spark):
        out = figures.fig06_eigenvector(
            spark, sparsifiers=["RN", "RD"], top_k=10, iters=20, **SMALL
        )
        _pivot_ok(out["eigenvector_p"], 0, 1)

    def test_fig07(self, spark):
        out = figures.fig07_katz(
            spark, sparsifiers=["RN", "LD"], top_k=10, iters=15, **SMALL
        )
        _pivot_ok(out["katz_p"], 0, 1)

    def test_fig08(self, spark):
        out = figures.fig08_communities(spark, sparsifiers=["RN", "SF"], **SMALL)
        _pivot_ok(out["communities"], 1)
        assert out["original"]["communities_full"].iloc[0] >= 1

    def test_fig09(self, spark):
        out = figures.fig09_clustering_coefficients(
            spark, sparsifiers=["RN", "SF"], **SMALL
        )
        _pivot_ok(out["mcc"], 0, 1)
        _pivot_ok(out["gcc"], 0, 1)
        # spanning forests have no triangles (Fig 9 observation)
        assert out["mcc"].set_index("sparsifier").loc["SF"].iloc[-1] == 0.0

    def test_fig10(self, spark):
        out = figures.fig10_clustering_f1(spark, sparsifiers=["RN", "KN"], **SMALL)
        _pivot_ok(out["f1"], 0, 1)

    def test_fig11(self, spark):
        out = figures.fig11_pagerank(
            spark, sparsifiers_a=["RN", "ERu"], sparsifiers_b=["RN", "RD"],
            top_k=10, iters=10, **SMALL
        )
        _pivot_ok(out["pagerank_p_a"], 0, 1)
        _pivot_ok(out["pagerank_p_b"], 0, 1)

    def test_fig12(self, spark):
        out = figures.fig12_mincut_maxflow(
            spark, sparsifiers=["RN", "ERw"], n_pairs=6, **SMALL
        )
        _pivot_ok(out["flow_stretch"], 0)

    def test_fig13(self, spark):
        out = figures.fig13_gnn(
            spark, sparsifiers=["RN", "LD"], scale=0.1, rhos=[0.5], n_runs=1,
            seed=0, epochs_sage=30, epochs_cgcn=10,
        )
        _pivot_ok(out["sage_auroc"], 0, 1)
        _pivot_ok(out["cgcn_acc"], 0, 1)
        ref = out["original"]
        assert 0.0 <= ref["sage_full_auroc"].iloc[0] <= 1.0

    def test_fig14(self, spark):
        out = figures.fig14_sparsification_time(
            spark, sparsifiers=["RN", "LD", "SF"], **SMALL
        )
        _pivot_ok(out["spar_time_s"], 0)
