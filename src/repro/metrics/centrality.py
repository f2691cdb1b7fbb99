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
from repro.core.iterate import loop
from repro.metrics.paths import multi_source_distances


def pagerank(g: Graph, *, damping: float = 0.85, iters: int = 30) -> DataFrame:
    """DataFrame[v, score]: PageRank by the power method.

    Weighted graphs split a vertex's rank across out-edges proportionally
    to edge weight; dangling vertices donate their mass uniformly.

    A round is one aggregate over the round's messages and a zero self
    row per vertex (which keeps every vertex): a vertex with no out-edge
    sends its whole score to key -1, so the checkpointed aggregate's -1
    row is the dangling mass that the next scores spread uniformly. The
    next scores read it through a window over the whole (one-partition)
    state, with no driver round trip.
    """
    shares = g.adjacency().withColumn(
        "wsum", F.sum("weight").over(Window.partitionBy("src"))
    ).select("src", "dst", (F.col("weight") / F.col("wsum")).alias("share"))
    n = g.n

    def scores(agg: DataFrame) -> DataFrame:
        dangling = F.coalesce(
            F.max(F.when(F.col("v") == -1, F.col("c"))).over(Window.partitionBy()),
            F.lit(0.0),
        )
        base = F.lit((1.0 - damping) / n) + damping * dangling / n
        return (
            agg.withColumn("base", base)
            .where(F.col("v") >= 0)
            .select("v", (F.col("base") + damping * F.col("c")).alias("score"))
        )

    def step(state: DataFrame, i: int) -> DataFrame:
        ranks = state if i == 0 else scores(state)
        msgs = ranks.withColumnRenamed("v", "src").join(shares, "src", "left").select(
            F.coalesce("dst", F.lit(-1)).alias("v"),
            (F.coalesce("share", F.lit(1.0)) * F.col("score")).alias("c"),
        )
        own = ranks.select("v", F.lit(0.0).alias("c"))
        return msgs.unionByName(own).groupBy("v").agg(F.sum("c").alias("c"))

    last = loop(g.vertices().withColumn("score", F.lit(1.0 / n)), step, max_iter=iters)
    return scores(last) if iters else last


def eigenvector_centrality(g: Graph, *, iters: int = 50, shift: float = 0.5) -> DataFrame:
    """DataFrame[v, score]: power iteration (left eigenvector if directed).

    Iterates on ``A + shift*I`` — same dominant eigenvector as ``A`` for a
    nonnegative matrix, but with a strictly dominant eigenvalue so the
    iteration converges on bipartite(-ish) graphs too. A round aggregates
    the in-edge messages and a ``shift*score`` self row per vertex into
    ``raw`` once; the scores are ``raw`` over its L2 norm.
    """
    rev = g.reverse_adjacency()  # rows (src=head, dst=tail)

    def scores(raw: DataFrame) -> DataFrame:
        # ``raw`` is a checkpoint read as one partition: the window over
        # all rows needs no exchange.
        norm = F.sqrt(F.sum(F.col("raw") ** 2).over(Window.partitionBy()))
        norm = F.when(norm == 0, F.lit(1.0)).otherwise(norm)
        return raw.select("v", (F.col("raw") / norm).alias("score"))

    def step(state: DataFrame, i: int) -> DataFrame:
        x = state if i == 0 else scores(state)
        # Summing incoming neighbors' scores lands on each edge's head.
        msgs = rev.join(x.withColumnRenamed("v", "dst"), "dst").select(
            F.col("src").alias("v"), (F.col("weight") * F.col("score")).alias("raw")
        )
        own = x.select("v", (shift * F.col("score")).alias("raw"))
        return msgs.unionByName(own).groupBy("v").agg(F.sum("raw").alias("raw"))

    last = loop(g.vertices().withColumn("score", F.lit(1.0)), step, max_iter=iters)
    return scores(last) if iters else last


def katz_centrality(g: Graph, *, alpha: float | None = None, iters: int = 40) -> DataFrame:
    """DataFrame[v, score]: Katz with the paper's α = 1/(max degree + 1)."""
    if alpha is None:
        max_deg = (
            g.degrees(include_zero=False).agg(F.max("degree")).collect()[0][0] or 1
        )
        alpha = 1.0 / (max_deg + 1.0)
    rev = g.reverse_adjacency()

    def step(x: DataFrame, i: int) -> DataFrame:
        walks = rev.join(x.withColumnRenamed("v", "dst"), "dst").select(
            F.col("src").alias("v"),
            (F.col("weight") * (F.col("score") + 1.0)).alias("walks"),
        )
        own = x.select("v", F.lit(0.0).alias("walks"))
        return (
            walks.unionByName(own)
            .groupBy("v")
            .agg((alpha * F.sum("walks")).alias("score"))
        )

    return loop(g.vertices().withColumn("score", F.lit(0.0)), step, max_iter=iters)


def closeness_approx(g: Graph, *, sources: list[int]) -> DataFrame:
    """DataFrame[v, score]: sampled closeness with WF correction.

    score(v) = r_v^2 / sum_{s in S reaching v} d(s, v), where r_v is the
    number of sampled sources that reach v — proportional to the
    Wasserman–Faust closeness estimate. Distances run along *incoming*
    paths for directed graphs (closeness uses d(u, v), §2.2.3).

    Each vertex's distances are added in ascending order, not in row
    order, so weighted scores do not move with the distance plan.
    """
    d = multi_source_distances(g, sources)
    dsum = F.aggregate(
        F.array_sort(F.collect_list("dist")), F.lit(0.0), lambda acc, x: acc + x
    )
    return (
        d.where(F.col("s") != F.col("v"))
        .groupBy("v")
        .agg(F.count("*").alias("r"), dsum.alias("dsum"))
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


def top_k_precision(ref_top: set[int], scores: DataFrame, *, k: int = 100) -> float:
    """|top-k(orig) ∩ top-k(sparse)| / k — the paper's §3.3.3 estimator.

    ``ref_top`` is :func:`top_k` of the original graph's scores, taken
    once per figure.
    """
    return len(ref_top & top_k(scores, k)) / float(k)
