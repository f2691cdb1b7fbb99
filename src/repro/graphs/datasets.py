"""The 14 synthetic stand-ins for the paper's Table 3 datasets.

Each entry mirrors one real-world graph's *structural class*: category,
directedness, weightedness, connectivity, and (scaled-down) density.
``scale`` multiplies the vertex count — jobs/benchmarks use ``scale=1``
(n in the low thousands), unit tests use ``scale≈0.1``.

Names carry a ``_lite`` suffix to make the substitution explicit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.graph import Graph
from repro.graphs import generators as gen
from repro.graphs.prep import drop_isolated_and_reindex


@dataclass
class Dataset:
    """A loaded stand-in graph plus Table 3 metadata.

    ``labels`` is the planted community id per vertex for SBM-based
    graphs (used by the GNN experiments), else None.
    """

    name: str
    category: str
    mimics: str
    graph: Graph
    labels: np.ndarray | None
    expect_connected: bool


def _sc(x: int, scale: float, lo: int = 16) -> int:
    return max(lo, int(round(x * scale)))


def _two_components(
    builder: Callable[[int, int], pd.DataFrame], n_main: int, n_small: int, seed: int
) -> pd.DataFrame:
    """Build a main component plus a small disconnected one (offset ids)."""
    e1 = builder(n_main, seed)
    e2 = builder(n_small, seed + 1)
    e2[["src", "dst"]] += n_main
    return pd.concat([e1, e2], ignore_index=True)


def _finish(
    spark: SparkSession,
    edges: pd.DataFrame,
    *,
    name: str,
    category: str,
    mimics: str,
    directed: bool,
    weighted: bool,
    connected: bool,
    labels: np.ndarray | None = None,
) -> Dataset:
    edges, old_ids = drop_isolated_and_reindex(edges)
    if labels is not None:
        labels = labels[old_ids]
    g = Graph.from_pandas(
        spark, edges, directed=directed, weighted=weighted, n=len(old_ids), name=name
    ).cache()
    _ = g.m
    return Dataset(
        name=name,
        category=category,
        mimics=mimics,
        graph=g,
        labels=labels,
        expect_connected=connected,
    )


def facebook_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    n = _sc(700, scale)
    e = gen.barabasi_albert(n, min(12, n // 4), seed=seed)
    return _finish(
        spark, e, name="facebook_lite", category="Social Network",
        mimics="ego-Facebook", directed=False, weighted=False, connected=True,
    )


def twitter_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    n = _sc(2000, scale)
    e = gen.powerlaw_directed(n, _sc(16000, scale), seed=seed)
    return _finish(
        spark, e, name="twitter_lite", category="Social Network",
        mimics="ego-Twitter", directed=True, weighted=False, connected=False,
    )


def gene_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    n_main, n_small = _sc(480, scale), _sc(24, scale, lo=5)
    e1 = gen.erdos_renyi(n_main, _sc(14000, scale), seed=seed, weighted=True)
    e2 = gen.erdos_renyi(n_small, _sc(60, scale, lo=6), seed=seed + 1, weighted=True)
    e2[["src", "dst"]] += n_main
    e = pd.concat([e1, e2], ignore_index=True)
    return _finish(
        spark, e, name="gene_lite", category="gene",
        mimics="human_gene2", directed=False, weighted=True, connected=False,
    )


def _sbm_dataset(
    spark: SparkSession, *, scale: float, seed: int, name: str, category: str,
    mimics: str, n0: int, k: int, deg_in: float, deg_out: float,
    theta: float = 0.0,
) -> Dataset:
    n = _sc(n0, scale)
    k = min(k, max(2, n // 12))
    e, labels = gen.sbm(
        n, k, avg_deg_in=deg_in, avg_deg_out=deg_out, seed=seed,
        theta_exponent=theta,
    )
    e = gen.connect_components(e, n, seed=seed)
    return _finish(
        spark, e, name=name, category=category, mimics=mimics,
        directed=False, weighted=False, connected=True, labels=labels,
    )


def dblp_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    return _sbm_dataset(
        spark, scale=scale, seed=seed, name="dblp_lite",
        category="Community Network", mimics="com-DBLP",
        n0=2000, k=40, deg_in=6.0, deg_out=1.2,
    )


def amazon_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    return _sbm_dataset(
        spark, scale=scale, seed=seed, name="amazon_lite",
        category="Community Network", mimics="com-Amazon",
        n0=2000, k=50, deg_in=4.5, deg_out=0.8,
    )


def enron_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    e = _two_components(
        lambda n_, s: gen.holme_kim(n_, 4, 0.4, seed=s),
        _sc(1100, scale), _sc(90, scale, lo=8), seed,
    )
    return _finish(
        spark, e, name="enron_lite", category="communication",
        mimics="email-Enron", directed=False, weighted=False, connected=False,
    )


def astroph_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    e = _two_components(
        lambda n_, s: gen.holme_kim(n_, min(7, n_ // 4), 0.8, seed=s),
        _sc(1400, scale), _sc(80, scale, lo=8), seed,
    )
    return _finish(
        spark, e, name="astroph_lite", category="collaboration",
        mimics="ca-AstroPh", directed=False, weighted=False, connected=False,
    )


def hepph_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    # ca-HepPh is a *modular* collaboration network (dense collaboration
    # groups), so the stand-in is a clustered planted-partition graph —
    # community detection on it is meaningful (Fig 10) — plus a small
    # disconnected Holme-Kim component (Table 3 marks it unconnected).
    n_main = _sc(950, scale)
    k = min(24, max(2, n_main // 12))
    e1, _ = gen.sbm(
        n_main, k, avg_deg_in=10.0, avg_deg_out=1.5, seed=seed,
        theta_exponent=2.5,
    )
    e1 = gen.connect_components(e1, n_main, seed=seed)
    n_small = _sc(60, scale, lo=8)
    e2 = gen.holme_kim(n_small, min(6, n_small // 4), 0.85, seed=seed + 1)
    e2[["src", "dst"]] += n_main
    e = pd.concat([e1, e2], ignore_index=True)
    return _finish(
        spark, e, name="hepph_lite", category="collaboration",
        mimics="ca-HepPh", directed=False, weighted=False, connected=False,
    )


def _web_dataset(
    spark: SparkSession, *, scale: float, seed: int, name: str, mimics: str,
    m0: int, a: float, b: float, c: float,
) -> Dataset:
    bits = max(7, 11 + int(np.floor(np.log2(max(scale, 1e-6)))))
    e = gen.rmat(bits, _sc(m0, scale), a=a, b=b, c=c, seed=seed)
    return _finish(
        spark, e, name=name, category="web", mimics=mimics,
        directed=True, weighted=False, connected=False,
    )


def berkstan_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    return _web_dataset(
        spark, scale=scale, seed=seed, name="berkstan_lite",
        mimics="web-BerkStan", m0=14000, a=0.60, b=0.18, c=0.18,
    )


def google_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    return _web_dataset(
        spark, scale=scale, seed=seed, name="google_lite",
        mimics="web-Google", m0=9000, a=0.57, b=0.19, c=0.19,
    )


def notredame_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    return _web_dataset(
        spark, scale=scale, seed=seed, name="notredame_lite",
        mimics="web-NotreDame", m0=7000, a=0.63, b=0.16, c=0.16,
    )


def stanford_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    return _web_dataset(
        spark, scale=scale, seed=seed, name="stanford_lite",
        mimics="web-Stanford", m0=11000, a=0.59, b=0.19, c=0.17,
    )


def reddit_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    # Degree-corrected: the real Reddit graph is heavy-tailed.
    return _sbm_dataset(
        spark, scale=scale, seed=seed, name="reddit_lite", category="GNN",
        mimics="Reddit", n0=1500, k=8, deg_in=18.0, deg_out=4.0, theta=2.0,
    )


def proteins_lite(spark: SparkSession, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    # Degree-corrected: ogbn-proteins has a broad degree distribution.
    return _sbm_dataset(
        spark, scale=scale, seed=seed, name="proteins_lite", category="GNN",
        mimics="ogbn-proteins", n0=1200, k=5, deg_in=25.0, deg_out=8.0,
        theta=1.8,
    )


LOADERS: dict[str, Callable[..., Dataset]] = {
    f.__name__: f
    for f in (
        facebook_lite, twitter_lite, gene_lite, dblp_lite, amazon_lite,
        enron_lite, astroph_lite, hepph_lite, berkstan_lite, google_lite,
        notredame_lite, stanford_lite, reddit_lite, proteins_lite,
    )
}


def load(spark: SparkSession, name: str, *, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Load one stand-in by name (see :data:`LOADERS` for all 14)."""
    return LOADERS[name](spark, scale=scale, seed=seed)
