"""Betweenness centrality (§2.2.3) via sampled Brandes as DataFrame jobs.

Exact betweenness needs APSP; the paper uses Geisberger-style sampling
(500 sources). We run Brandes' algorithm from a sampled source batch:

* **Forward** — level-synchronous BFS carrying path counts: the table
  (s, v, dist, sigma) expands its last level by one hop per round, sigma
  summing over predecessors (unweighted shortest paths, as in Brandes).
* **Backward** — walk the BFS DAG from the deepest level up, adding
  delta(u) += sigma_u/sigma_w * (1 + delta_w) over DAG edges (u, w).

Betweenness(v) = sum over sampled sources of delta(s, v). With all
vertices as sources this is exact (tests check it against networkx).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.iterate import loop


def bfs_sigma(g: Graph, sources: list[int], *, max_iter: int = 128) -> DataFrame:
    """DataFrame[s, v, dist, sigma]: hop distance and #shortest paths.

    Round ``i`` expands the vertices found in the previous round
    (``fresh``); a vertex with no row yet is found at ``dist = i + 1``,
    its sigma the sum of its new predecessors' sigmas.
    """
    adj = g.adjacency().select(F.col("src").alias("v"), "dst")
    state = g.vertices().where(F.col("v").isin(sources)).select(
        F.col("v").alias("s"), "v", F.lit(0).alias("dist"), F.lit(1.0).alias("sigma"),
        F.lit(True).alias("fresh"),
    )

    def step(state: DataFrame, i: int) -> DataFrame:
        cand = state.where(F.col("fresh")).join(adj, "v").select(
            "s", F.col("dst").alias("v"), F.col("sigma").alias("paths")
        )
        old = state.select("s", "v", "dist", "sigma")
        return (
            cand.unionByName(old, allowMissingColumns=True)
            .groupBy("s", "v")
            .agg(
                F.max("dist").alias("od"),
                F.max("sigma").alias("sigma"),
                F.sum("paths").alias("paths"),
            )
            .select(
                "s", "v",
                F.coalesce("od", F.lit(i + 1)).alias("dist"),
                F.coalesce("sigma", "paths").alias("sigma"),
                F.col("od").isNull().alias("fresh"),
            )
        )

    visited = loop(state, step, max_iter=max_iter, until_none="fresh")
    return visited.select("s", "v", "dist", "sigma")


def brandes_delta(g: Graph, visited: DataFrame) -> DataFrame:
    """DataFrame[s, v, delta]: dependency accumulation over the BFS DAG,
    one level per round from the deepest up."""
    adj = g.adjacency().select(F.col("src").alias("v"), F.col("dst").alias("w"))
    max_level = visited.agg(F.max("dist")).collect()[0][0] or 0

    def step(delta: DataFrame, i: int) -> DataFrame:
        level = max_level - i
        down = (
            visited.where(F.col("dist") == level)
            .withColumnRenamed("v", "w")
            .withColumnRenamed("sigma", "sigma_w")
        )
        down = down.join(
            delta.withColumnRenamed("v", "w").withColumnRenamed("delta", "delta_w"),
            ["s", "w"],
        )
        up = (
            visited.where(F.col("dist") == level - 1)
            .withColumnRenamed("sigma", "sigma_u")
            .select("s", "v", "sigma_u")
        )
        # DAG edges: (u at level-1) -> (w at level) that are graph edges.
        contrib = (
            up.join(adj, "v")
            .join(down, ["s", "w"])
            .groupBy("s", "v")
            .agg(
                F.sum(
                    (F.col("sigma_u") / F.col("sigma_w")) * (1.0 + F.col("delta_w"))
                ).alias("contrib")
            )
        )
        return delta.join(contrib, ["s", "v"], "left").select(
            "s", "v",
            (F.col("delta") + F.coalesce("contrib", F.lit(0.0))).alias("delta"),
        )

    delta0 = visited.select("s", "v", F.lit(0.0).alias("delta"))
    return loop(delta0, step, max_iter=max_level)


def betweenness_scores(g: Graph, *, sources: list[int]) -> DataFrame:
    """DataFrame[v, score]: sampled-source Brandes betweenness.

    Unnormalized pair-dependency sums (for undirected graphs each
    unordered pair is counted from both endpoints, like doubling Brandes'
    1/2 factor) — top-k precision only needs the ranking.
    """
    visited = bfs_sigma(g, sources)
    delta = brandes_delta(g, visited)
    scores = (
        delta.where(F.col("s") != F.col("v"))
        .groupBy("v")
        .agg(F.sum("delta").alias("score"))
    )
    return (
        g.vertices()
        .join(scores, "v", "left")
        .select("v", F.coalesce("score", F.lit(0.0)).alias("score"))
    )
