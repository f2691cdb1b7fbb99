"""Shared building blocks for the sparsifiers.

Three ideas recur across the algorithms:

* **Exact-k selection** — pick exactly ``k`` edges by a (score, tie-break)
  order: a global sort + limit, fine at reproduction scale and fully
  deterministic given the ordering columns.
* **Per-vertex incidence ranks** — rank each vertex's incident edges by
  some per-edge key (degree, similarity, random); an undirected edge gets
  the *minimum* of its two endpoint ranks, so "vertex keeps its top-r
  edges" becomes a single filter on the canonical edge list.
  :func:`top_degree_power` solves the top-``deg**c`` family this way.
* **Integer-threshold solving** — K-Neighbor-style sparsifiers control
  the prune rate through an integer knob (k, or a rank threshold); we
  pick the knob value whose kept-edge count is closest to the target from
  the cumulative rank histogram.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph


def target_edges(m: int, rho: float) -> int:
    """|E'| = (1 - rho)|E|, at least 1 (Definition 1)."""
    return max(1, int(round((1.0 - rho) * m)))


def hash_uniform(seed: int, *cols: str) -> Column:
    """A uniform draw in [0, 1) per row: the top 53 bits of
    ``xxhash64(*cols, seed)`` over 2**53.

    The draw is a function of the row's own values, so it does not depend
    on how rows are partitioned, as ``F.rand`` does.
    """
    return F.shiftrightunsigned(F.xxhash64(*cols, F.lit(seed)), 11) / float(2**53)


def take_k(edges: DataFrame, k: int, order_cols: list) -> DataFrame:
    """Exactly ``k`` edges under a deterministic total order."""
    return edges.orderBy(*order_cols).limit(k).select("src", "dst", "weight")


def incidence_ranked(inc: DataFrame, key_col) -> DataFrame:
    """Incidence rows ranked per vertex by ``key_col`` ascending.

    ``inc`` holds one row per (vertex ``src``, incident edge) — two rows
    per undirected edge, one per directed edge, as :meth:`Graph.adjacency`.
    Adds ``rank``, 1-based within each ``src`` (ties broken by ``dst``),
    and ``deg``, the vertex degree (out-degree for directed graphs).
    """
    w_rank = Window.partitionBy("src").orderBy(F.col("_key"), F.col("dst"))
    w_deg = Window.partitionBy("src")
    return (
        inc.withColumn("_key", key_col)
        .withColumn("rank", F.row_number().over(w_rank))
        .withColumn("deg", F.count("*").over(w_deg))
        .drop("_key")
    )


def canonical_min_rank(g: Graph, ranked: DataFrame, extra_min: list[str] = ()) -> DataFrame:
    """Fold per-endpoint ranks back onto the canonical edge list.

    For undirected graphs each canonical edge has rows for both endpoints
    in ``ranked``; the edge-level rank (and any column in ``extra_min``)
    is the minimum across endpoints. Directed graphs pass through.
    Returns DataFrame[src, dst, weight, rank, *extra_min].
    """
    aggs = [F.min("rank").alias("rank")] + [
        F.min(c).alias(c) for c in extra_min
    ]
    if g.directed:
        return ranked.groupBy("src", "dst", "weight").agg(*aggs)
    return (
        ranked.select(
            F.least("src", "dst").alias("src"),
            F.greatest("src", "dst").alias("dst"),
            "weight",
            "rank",
            *extra_min,
        )
        .groupBy("src", "dst", "weight")
        .agg(*aggs)
    )


def top_degree_power(
    g: Graph, inc: DataFrame, k_target: int, *, pref_breaks_ties: bool = False
) -> DataFrame:
    """Per-vertex top-``deg**c`` selection, ``c`` solved for ``k_target``.

    The rule of Local Degree, L-Spar and Local Similarity (§2.3.4,
    §2.3.8): each vertex keeps its ``deg**c`` most preferred incident
    edges. ``inc`` is incidence rows (see :func:`incidence_ranked`) with a
    ``pref`` column, higher preferred. A vertex keeps its rank-``r`` edge
    iff ``c >= log(r)/log(deg)``, so each incidence has a required
    exponent; an undirected edge's requirement is the min over its
    endpoints, and the ``k_target`` edges with the smallest requirement
    are the family member with the target prune rate. Rank-1 edges
    require ``c = 0``, so the family has a maximum prune rate (§3.2):
    never keep fewer edges than that, and every vertex keeps an edge at
    any rho. Equal requirements go to the higher ``pref`` when
    ``pref_breaks_ties`` (``pref`` must then agree across endpoints), then
    to ids. Returns the kept DataFrame[src, dst, weight].
    """
    ranked = incidence_ranked(inc, -F.col("pref")).withColumn(
        "c_req",
        F.when((F.col("rank") == 1) | (F.col("deg") <= 1), F.lit(0.0)).otherwise(
            F.log(F.col("rank").cast("double")) / F.log(F.col("deg").cast("double"))
        ),
    )
    edge_req = canonical_min_rank(g, ranked, extra_min=["c_req", "pref"]).localCheckpoint(
        eager=True
    )
    floor = edge_req.where(F.col("c_req") <= 0.0).count()
    ties = [F.col("pref").desc()] if pref_breaks_ties else []
    return take_k(edge_req, max(k_target, floor), [F.col("c_req"), *ties, "src", "dst"])


def best_int_threshold(ranked_edges: DataFrame, k_target: int) -> int:
    """Integer rank threshold whose kept-edge count best matches target.

    ``ranked_edges`` must have an integer ``rank`` column at edge (not
    incidence) granularity. Keeping edges with ``rank <= t`` is monotone
    in ``t``; we pick the ``t`` minimizing |count(t) - k_target| from the
    cumulative rank histogram (one aggregate job).
    """
    hist = (
        ranked_edges.groupBy("rank").count().orderBy("rank").toPandas()
    )
    cum = 0
    best_t, best_gap = 1, float("inf")
    for _, row in hist.iterrows():
        cum += int(row["count"])
        gap = abs(cum - k_target)
        if gap < best_gap:
            best_gap, best_t = gap, int(row["rank"])
    return best_t
