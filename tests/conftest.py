"""Shared tiny-graph fixtures for the test suite.

All fixtures are session-scoped and built once: each graph is built on
the driver by ``Graph.from_pandas`` (one partition, no Spark job, as the
harness builds its stand-ins), and each has a networkx twin for oracle
comparisons.
Graphs are deliberately tiny (n <= ~80) — the suite runs hundreds of Spark jobs and
per-job overhead dominates at this scale.
"""
from __future__ import annotations

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.core.graph import Graph
from repro.graphs import datasets
from repro.graphs import generators as gen


def _nx_undirected(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for r in g.to_pandas_edges().itertuples():
        G.add_edge(int(r.src), int(r.dst), weight=float(r.weight), capacity=float(r.weight))
    return G


def _nx_directed(g: Graph) -> nx.DiGraph:
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    for r in g.to_pandas_edges().itertuples():
        G.add_edge(int(r.src), int(r.dst), weight=float(r.weight), capacity=float(r.weight))
    return G


def to_nx(g: Graph):
    """networkx twin of a Graph (Graph or DiGraph by directedness)."""
    return _nx_directed(g) if g.directed else _nx_undirected(g)


@pytest.fixture(scope="session")
def tiny_undirected(spark) -> Graph:
    """Connected Holme-Kim graph, n=70 — the workhorse fixture."""
    pdf = gen.holme_kim(70, 3, 0.5, seed=7)
    return Graph.from_pandas(
        spark, pdf, directed=False, weighted=False, n=70, name="tiny_u"
    )


@pytest.fixture(scope="session")
def tiny_directed(spark) -> Graph:
    """Directed power-law graph, n=60."""
    pdf = gen.powerlaw_directed(60, 240, seed=3)
    return Graph.from_pandas(
        spark, pdf, directed=True, weighted=False, n=60, name="tiny_d"
    )


@pytest.fixture(scope="session")
def tiny_weighted(spark) -> Graph:
    """Weighted connected ER graph, n=40."""
    pdf = gen.erdos_renyi(40, 180, seed=5, weighted=True)
    pdf = gen.connect_components(pdf, 40, seed=5)
    return Graph.from_pandas(
        spark, pdf, directed=False, weighted=True, n=40, name="tiny_w"
    )


@pytest.fixture(scope="session")
def tiny_disconnected(spark) -> Graph:
    """Two Holme-Kim components (n=40+15) plus 5 isolated vertices."""
    e1 = gen.holme_kim(40, 2, 0.4, seed=11)
    e2 = gen.holme_kim(15, 2, 0.4, seed=12)
    e2[["src", "dst"]] += 40
    pdf = pd.concat([e1, e2], ignore_index=True)
    return Graph.from_pandas(
        spark, pdf, directed=False, weighted=False, n=60, name="tiny_disc"
    )


@pytest.fixture(scope="session")
def path_graph(spark) -> Graph:
    """Path 0-1-2-...-9 (known distances/centralities)."""
    pdf = pd.DataFrame({"src": range(9), "dst": range(1, 10)})
    return Graph.from_pandas(
        spark, pdf, directed=False, weighted=False, n=10, name="path10"
    )


@pytest.fixture(scope="session")
def star_graph(spark) -> Graph:
    """Star with hub 0 and 8 leaves."""
    pdf = pd.DataFrame({"src": [0] * 8, "dst": range(1, 9)})
    return Graph.from_pandas(
        spark, pdf, directed=False, weighted=False, n=9, name="star9"
    )


@pytest.fixture(scope="session")
def complete_graph(spark) -> Graph:
    """K6 — every clustering coefficient is 1."""
    rows = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    pdf = pd.DataFrame(rows, columns=["src", "dst"])
    return Graph.from_pandas(
        spark, pdf, directed=False, weighted=False, n=6, name="K6"
    )


@pytest.fixture(scope="session")
def sbm_graph(spark):
    """Strong 4-community SBM (n=80) with its planted labels."""
    edges, labels = gen.sbm(80, 4, avg_deg_in=8.0, avg_deg_out=0.5, seed=21)
    edges = gen.connect_components(edges, 80, seed=21)
    g = Graph.from_pandas(
        spark, edges, directed=False, weighted=False, n=80, name="sbm4"
    )
    return g, labels


@pytest.fixture(scope="session")
def stand_in(spark):
    """A loaded dataset stand-in (facebook_lite at scale 0.12), as a sweep
    reads it: built on the driver, one partition, its edge list kept."""
    return datasets.load(spark, "facebook_lite", scale=0.12, seed=0).graph


@pytest.fixture(scope="session")
def all_tiny(tiny_undirected, tiny_directed, tiny_weighted, tiny_disconnected):
    return {
        "undirected": tiny_undirected,
        "directed": tiny_directed,
        "weighted": tiny_weighted,
        "disconnected": tiny_disconnected,
    }
