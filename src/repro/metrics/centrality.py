"""Centrality metrics (§2.2.3, §2.2.5) and the top-k precision estimator.

Four centralities; the first three are fixed-point iterations over the
adjacency, each a ``step`` run by :func:`repro.core.iterate.loop`:

* **PageRank** — power method with damping and dangling-mass
  redistribution (§2.2.5).
* **Eigenvector centrality** — power iteration aggregating along
  *incoming* edges, i.e. the left eigenvector for directed graphs
  (Table 1 footnote), L2-normalized each round.
* **Katz centrality** — x ← α A^T x + 1 with the paper's
  α = 1/(max degree + 1).
* **Closeness** — sampled-source estimator (Eppstein–Wang style) on top
  of :func:`repro.metrics.paths.multi_source_distances`, with the
  Wasserman–Faust reachability correction so disconnected graphs are
  comparable (§2.2.3, Table 1).

Quality is reported as **top-k precision** (§3.3.3): the overlap between
the top-k vertices of the sparsified and the original graph.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.iterate import loop, materialize
from repro.metrics.paths import multi_source_distances


def pagerank(g: Graph, *, damping: float = 0.85, iters: int = 30) -> DataFrame:
    """DataFrame[v, score]: PageRank by the power method.

    Weighted graphs split a vertex's rank across out-edges proportionally
    to edge weight; dangling vertices donate their mass uniformly.
    """
    adj = materialize(
        g.adjacency()
        .withColumn("wsum", F.sum("weight").over(Window.partitionBy("src")))
        .select("src", "dst", (F.col("weight") / F.col("wsum")).alias("share"))
    )
    n = g.n
    out_vertices = adj.select(F.col("src").alias("v")).distinct()

    def step(ranks: DataFrame, i: int) -> DataFrame:
        contribs = (
            adj.join(ranks.withColumnRenamed("v", "src"), "src")
            .groupBy(F.col("dst").alias("v"))
            .agg(F.sum(F.col("share") * F.col("score")).alias("contrib"))
        )
        dangling = (
            ranks.join(out_vertices, "v", "left_anti").agg(F.sum("score")).collect()[0][0]
            or 0.0
        )
        base = (1.0 - damping) / n + damping * dangling / n
        return g.vertices().join(contribs, "v", "left").select(
            "v",
            (F.lit(base) + damping * F.coalesce("contrib", F.lit(0.0))).alias("score"),
        )

    return loop(g.vertices().withColumn("score", F.lit(1.0 / n)), step, max_iter=iters)


def eigenvector_centrality(g: Graph, *, iters: int = 50, shift: float = 0.5) -> DataFrame:
    """DataFrame[v, score]: power iteration (left eigenvector if directed).

    Iterates on ``A + shift*I`` — same dominant eigenvector as ``A`` for a
    nonnegative matrix, but with a strictly dominant eigenvalue so the
    iteration converges on bipartite(-ish) graphs too.
    """
    rev = materialize(g.reverse_adjacency())  # rows (src=head, dst=tail)

    def step(x: DataFrame, i: int) -> DataFrame:
        agg = (
            rev.join(x.withColumnRenamed("v", "dst"), "dst")
            .groupBy(F.col("src").alias("v"))
            .agg(F.sum(F.col("weight") * F.col("score")).alias("nscore"))
        )
        # Summing incoming neighbors' scores lands on each edge's head.
        shifted = (
            g.vertices()
            .join(x, "v")
            .join(agg, "v", "left")
            .select(
                "v",
                (F.coalesce("nscore", F.lit(0.0)) + shift * F.col("score")).alias(
                    "raw"
                ),
            )
        )
        norm = shifted.agg(F.sqrt(F.sum(F.col("raw") ** 2))).collect()[0][0] or 1.0
        return shifted.select("v", (F.col("raw") / norm).alias("score"))

    return loop(g.vertices().withColumn("score", F.lit(1.0)), step, max_iter=iters)


def katz_centrality(g: Graph, *, alpha: float | None = None, iters: int = 40) -> DataFrame:
    """DataFrame[v, score]: Katz with the paper's α = 1/(max degree + 1)."""
    if alpha is None:
        max_deg = (
            g.degrees(include_zero=False).agg(F.max("degree")).collect()[0][0] or 1
        )
        alpha = 1.0 / (max_deg + 1.0)
    rev = materialize(g.reverse_adjacency())

    def step(x: DataFrame, i: int) -> DataFrame:
        agg = (
            rev.join(x.withColumnRenamed("v", "dst"), "dst")
            .groupBy(F.col("src").alias("v"))
            .agg(F.sum(F.col("weight") * (F.col("score") + 1.0)).alias("walks"))
        )
        return (
            g.vertices()
            .join(agg, "v", "left")
            .select("v", (alpha * F.coalesce("walks", F.lit(0.0))).alias("score"))
        )

    return loop(g.vertices().withColumn("score", F.lit(0.0)), step, max_iter=iters)


def closeness_approx(g: Graph, *, sources: list[int]) -> DataFrame:
    """DataFrame[v, score]: sampled closeness with WF correction.

    score(v) = r_v^2 / sum_{s in S reaching v} d(s, v), where r_v is the
    number of sampled sources that reach v — proportional to the
    Wasserman–Faust closeness estimate. Distances run along *incoming*
    paths for directed graphs (closeness uses d(u, v), §2.2.3).
    """
    d = multi_source_distances(g, sources)
    return (
        d.where(F.col("s") != F.col("v"))
        .groupBy("v")
        .agg(F.count("*").alias("r"), F.sum("dist").alias("dsum"))
        .select(
            "v",
            (F.col("r") * F.col("r") / F.greatest(F.col("dsum"), F.lit(1e-12))).alias(
                "score"
            ),
        )
    )


def top_k(scores: DataFrame, k: int) -> set[int]:
    """Top-k vertex ids by score (ties broken by id, deterministic)."""
    rows = scores.orderBy(F.col("score").desc(), F.col("v")).limit(k).collect()
    return {int(r["v"]) for r in rows}


def top_k_precision(scores_orig: DataFrame, scores_sparse: DataFrame, *, k: int = 100) -> float:
    """|top-k(orig) ∩ top-k(sparse)| / k — the paper's §3.3.3 estimator."""
    a = top_k(scores_orig, k)
    b = top_k(scores_sparse, k)
    return len(a & b) / float(k)
