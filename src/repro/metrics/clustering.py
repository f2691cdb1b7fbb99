"""Clustering metrics (§2.2.4): coefficients, communities, F1 similarity.

* **Triangle counting** — per-edge common-neighbor counts via a two-hop
  DataFrame self-join on the symmetrized graph (the paper's coefficient
  rows ignore weights and, for directedness, we symmetrize — documented
  substitution, DESIGN.md §2).
* **LCC / MCC / GCC** — from per-vertex triangle and wedge counts.
* **Communities** — synchronous label propagation (LPA) with a self-vote
  and (count desc, label asc) tie-breaking, standing in for the paper's
  Louvain (DESIGN.md §2). Labels only spread within components, so the
  paper's disconnection-driven community growth is visible.
* **Clustering F1** — the paper's §2.2.4 precision/recall over the
  cluster contingency matrix.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.iterate import loop, materialize


def edge_common_neighbors(g: Graph) -> DataFrame:
    """``g.edges`` with ``common`` = |N(src) ∩ N(dst)| appended.

    Neighbourhoods follow :meth:`Graph.adjacency` (out-neighbours when
    directed); symmetrize first for undirected triangle counts.
    """
    nb = g.adjacency().select("src", "dst")
    pairs = g.edges.select(F.col("src").alias("u"), F.col("dst").alias("v"))
    u_nb = nb.select(F.col("src").alias("u"), F.col("dst").alias("c"))
    v_nb = nb.select(F.col("src").alias("v"), F.col("dst").alias("c"))
    common = (
        pairs.join(u_nb, "u").join(v_nb, ["v", "c"]).groupBy("u", "v").count()
        .select(F.col("u").alias("src"), F.col("v").alias("dst"),
                F.col("count").alias("common"))
    )
    return g.edges.join(common, ["src", "dst"], "left").withColumn(
        "common", F.coalesce("common", F.lit(0))
    )


def vertex_triangles(g: Graph) -> DataFrame:
    """DataFrame[v, triangles, degree] on the symmetrized graph."""
    gu = g.symmetrized()
    ecn = edge_common_neighbors(gu)
    incident = ecn.select(F.col("src").alias("v"), "common").unionByName(
        ecn.select(F.col("dst").alias("v"), "common")
    )
    tri = incident.groupBy("v").agg((F.sum("common") / 2).alias("triangles"))
    return (
        gu.degrees(include_zero=True)
        .join(tri, "v", "left")
        .select("v", F.coalesce("triangles", F.lit(0.0)).alias("triangles"), "degree")
    )


def local_clustering_coefficients(g: Graph) -> DataFrame:
    """DataFrame[v, lcc]; vertices with degree < 2 have LCC 0 (as in
    networkx ``clustering``)."""
    vt = vertex_triangles(g)
    return vt.select(
        "v",
        F.when(
            F.col("degree") >= 2,
            2.0 * F.col("triangles") / (F.col("degree") * (F.col("degree") - 1)),
        )
        .otherwise(0.0)
        .alias("lcc"),
    )


def mean_clustering_coefficient(g: Graph) -> float:
    """MCC: mean LCC over all vertices (§2.2.4)."""
    row = local_clustering_coefficients(g).agg(F.avg("lcc")).collect()[0]
    return float(row[0] or 0.0)


def global_clustering_coefficient(g: Graph) -> float:
    """GCC: 3 * #triangles / #triplets (open + closed) (§2.2.4)."""
    vt = vertex_triangles(g).agg(
        F.sum("triangles").alias("tri_incidences"),
        F.sum(F.col("degree") * (F.col("degree") - 1) / 2.0).alias("wedges"),
    ).collect()[0]
    triangles = float(vt["tri_incidences"] or 0.0) / 3.0
    wedges = float(vt["wedges"] or 0.0)
    return 3.0 * triangles / wedges if wedges else 0.0


def lpa_communities(g: Graph, *, max_iter: int = 10) -> DataFrame:
    """DataFrame[v, label]: synchronous label propagation communities."""
    gu = g.symmetrized()
    adj = materialize(gu.adjacency().select("src", "dst"))
    state = gu.vertices().withColumn("label", F.col("v"))

    def step(labels: DataFrame, i: int) -> DataFrame:
        votes = adj.join(
            labels.withColumnRenamed("v", "dst"), "dst"
        ).select(F.col("src").alias("v"), "label")
        # Self-vote stabilizes synchronous LPA against 2-cycles.
        votes = votes.unionByName(labels.select("v", "label"))
        counted = votes.groupBy("v", "label").count()
        w = Window.partitionBy("v").orderBy(F.col("count").desc(), F.col("label"))
        return (
            counted.withColumn("rk", F.row_number().over(w))
            .where(F.col("rk") == 1)
            .select("v", "label")
        )

    def done(prev: DataFrame, new: DataFrame) -> bool:
        changed = (
            prev.withColumnRenamed("label", "pl")
            .join(new, "v")
            .where(F.col("pl") != F.col("label"))
            .limit(1)
            .count()
        )
        return changed == 0

    return loop(state, step, max_iter=max_iter, done=done)


def num_communities(g: Graph, *, max_iter: int = 10) -> int:
    """Number of LPA communities (isolated vertices count singly)."""
    return lpa_communities(g, max_iter=max_iter).select("label").distinct().count()


def clustering_f1(labels_eval: DataFrame, labels_ref: DataFrame, n: int) -> float:
    """Paper §2.2.4 clustering F1 between two (v, label) tables.

    precision = sum_i max_j a_ij / sum_ij a_ij with rows the evaluated
    clusters; recall = sum_i max_j a_ij / n; F1 their harmonic mean.
    """
    cont = (
        labels_eval.withColumnRenamed("label", "ci")
        .join(labels_ref.withColumnRenamed("label", "rj"), "v")
        .groupBy("ci", "rj")
        .count()
        .toPandas()
    )
    if cont.empty:
        return 0.0
    per_row_max = cont.groupby("ci")["count"].max().sum()
    total = cont["count"].sum()
    precision = per_row_max / total
    recall = per_row_max / n
    if precision + recall == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def labels_from_pandas(spark, labels) -> DataFrame:
    """Helper: (v, label) DataFrame from an array-like of labels."""
    pdf = pd.DataFrame({"v": range(len(labels)), "label": list(labels)})
    return spark.createDataFrame(pdf, schema="v long, label long")
