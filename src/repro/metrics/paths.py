"""Distance metrics (§2.2.2, §3.3.2): SPSP stretch, eccentricity, diameter.

The workhorse is a *batched multi-source* shortest-path DataFrame job:
all sampled sources run in one table (s, v, dist), each round relaxing
the rows the previous round improved against the adjacency —
plain BFS on unweighted graphs, frontier-based Bellman-Ford on weighted
ones. The paper's estimators compare two such tables, the original's
(computed once per figure) and a sparsified graph's, from the same
sources:

* **SPSP stretch** — mean of d_sparse/d_orig over sampled (s, v) pairs
  reachable in both graphs (the paper's §3.3.2 sampling of APSP);
  pairs unreachable in the original are excluded (Table 1 footnote).
* **Eccentricity stretch** — ecc over sampled sources, within the
  original graph's reach.
* **Approximate diameter** — the paper's iterated farthest-vertex
  double sweep from multiple random seeds.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.iterate import loop


def sample_sources(g: Graph, k: int, *, seed: int = 0) -> list[int]:
    """``k`` distinct vertices, uniform, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    k = min(k, g.n)
    return sorted(int(v) for v in rng.choice(g.n, size=k, replace=False))


def multi_source_distances(
    g: Graph, sources: list[int], *, max_iter: int = 128
) -> DataFrame:
    """DataFrame[s, v, dist] of shortest-path distances from each source.

    Frontier-based label-correcting relaxation: only rows improved in the
    previous round (``fresh``) are expanded, so unweighted graphs do exact
    BFS work and weighted graphs do Bellman-Ford with a shrinking
    frontier. Unreached (s, v) pairs are absent from the output.
    """
    adj = g.adjacency().select(F.col("src").alias("v"), "dst", "weight")
    state = g.vertices().where(F.col("v").isin(sources)).select(
        F.col("v").alias("s"), "v", F.lit(0.0).alias("dist"),
        F.lit(True).alias("fresh"),
    )

    def step(state: DataFrame, i: int) -> DataFrame:
        cand = state.where(F.col("fresh")).join(adj, "v").select(
            "s", F.col("dst").alias("v"), (F.col("dist") + F.col("weight")).alias("nd")
        )
        old = state.select("s", "v", F.col("dist").alias("od"))
        dist = F.least("nd", "od")
        return (
            cand.unionByName(old, allowMissingColumns=True)
            .groupBy("s", "v")
            .agg(F.min("nd").alias("nd"), F.min("od").alias("od"))
            .select(
                "s", "v", dist.alias("dist"),
                (F.col("od").isNull() | (dist < F.col("od"))).alias("fresh"),
            )
        )

    return loop(state, step, max_iter=max_iter, until_none="fresh").select("s", "v", "dist")


def spsp_stretch(d0: DataFrame, d1: DataFrame) -> tuple[float, float]:
    """(mean stretch, newly-unreachable fraction) over sampled pairs.

    ``d0`` and ``d1`` are :func:`multi_source_distances` of the original
    and the sparsified graph from the same sources. Stretch =
    d_sparse/d_orig averaged over pairs reachable in both graphs (s != v).
    The second value is the fraction of pairs reachable in the original
    that became unreachable after sparsification.
    """
    joined = (
        d0.where(F.col("s") != F.col("v"))
        .withColumnRenamed("dist", "d0")
        .join(d1.withColumnRenamed("dist", "d1"), ["s", "v"], "left")
        .agg(
            F.count("*").alias("pairs"),
            F.count("d1").alias("reached"),
            F.avg(F.col("d1") / F.col("d0")).alias("stretch"),
        )
        .collect()[0]
    )
    pairs, reached = joined["pairs"], joined["reached"]
    unreachable = 1.0 - reached / pairs if pairs else 0.0
    return float(joined["stretch"] or np.nan), unreachable


def eccentricity_stretch(d0: DataFrame, d1: DataFrame) -> float:
    """Mean ecc_sparse/ecc_orig over the sources of the original's (``d0``)
    and the sparsified graph's (``d1``) :func:`multi_source_distances`, on
    the original's reachable set (so disconnection inflates, not hides,
    the stretch)."""
    e0 = d0.groupBy("s").agg(F.max("dist").alias("ecc0"))
    e1 = (
        d1.join(d0.select("s", "v"), ["s", "v"], "left_semi")
        .groupBy("s")
        .agg(F.max("dist").alias("ecc1"))
    )
    pdf = e0.join(e1, "s").where(F.col("ecc0") > 0).toPandas()
    if pdf.empty:
        return float("nan")
    return float((pdf["ecc1"] / pdf["ecc0"]).mean())


def approx_diameter(
    g: Graph, *, n_seeds: int = 10, sweeps: int = 2, seed: int = 0
) -> float:
    """Paper §3.3.2 approximate diameter: iterated farthest-vertex sweeps
    from ``n_seeds`` random starts, mean of the per-seed maxima."""
    starts = sample_sources(g, n_seeds, seed=seed)
    current = starts
    best = np.zeros(len(starts))
    for _ in range(sweeps):
        d = multi_source_distances(g, sorted(set(current)))
        far = (
            d.withColumn(
                "rk",
                F.row_number().over(
                    Window.partitionBy("s").orderBy(F.col("dist").desc(), F.col("v"))
                ),
            )
            .where(F.col("rk") == 1)
            .toPandas()
            .set_index("s")
        )
        nxt = []
        for i, s in enumerate(current):
            if s in far.index:
                best[i] = max(best[i], float(far.loc[s, "dist"]))
                nxt.append(int(far.loc[s, "v"]))
            else:
                nxt.append(s)
        current = nxt
    return float(best.mean())
