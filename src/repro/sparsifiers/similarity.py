"""Similarity-based sparsifiers (§2.3.8): G-Spar, SCAN, Local Similarity,
L-Spar.

All four start from per-edge neighborhood-overlap scores computed with
DataFrame self-joins over the adjacency:

* exact Jaccard |N(u)∩N(v)| / |N(u)∪N(v)| — common-neighbor counting via
  the two-hop join of :func:`repro.metrics.clustering.edge_common_neighbors`
  (a distributed triangle enumeration);
* SCAN structural similarity (|N(u)∩N(v)|+1) / sqrt((d(u)+1)(d(v)+1));
* L-Spar's *approximate* Jaccard via k min-wise hashes (the O(k|E|) row
  of Table 2), computed with ``xxhash64`` min-aggregates per vertex.

*Global* sparsifiers (G-Spar, SCAN) keep the globally best-scored edges;
*local* ones (L-Spar, Local Similarity) rank each vertex's incident
edges and keep every vertex's top ``deg**c``, with ``c`` solved for the
target prune rate exactly like Local Degree (see
:mod:`repro.sparsifiers.local_degree`). Directed graphs use out-neighbor
sets (Table 2 footnote).
"""
from __future__ import annotations

import functools
import operator

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.iterate import materialize
from repro.metrics.clustering import edge_common_neighbors
from repro.sparsifiers.base import take_k, target_edges


def edge_scores(g: Graph) -> DataFrame:
    """Canonical edges with exact similarity scores.

    Returns DataFrame[src, dst, weight, common, du, dv, jaccard, scan]:
    ``common`` = |N(src) ∩ N(dst)| (out-neighborhoods when directed).
    """
    deg = g.degrees(include_zero=False)
    du = deg.select(F.col("v").alias("src"), F.col("degree").alias("du"))
    dv = deg.select(F.col("v").alias("dst"), F.col("degree").alias("dv"))
    return (
        edge_common_neighbors(g)
        .join(du, "src")
        .join(dv, "dst")
        .withColumn(
            "jaccard",
            F.col("common")
            / F.greatest(F.col("du") + F.col("dv") - F.col("common"), F.lit(1)),
        )
        .withColumn(
            "scan",
            (F.col("common") + 1)
            / F.sqrt((F.col("du") + 1.0) * (F.col("dv") + 1.0)),
        )
        .select("src", "dst", "weight", "common", "du", "dv", "jaccard", "scan")
    )


def minhash_jaccard_scores(g: Graph, *, k_hashes: int = 8, seed: int = 0) -> DataFrame:
    """Canonical edges with min-wise-hash estimated Jaccard (L-Spar's score).

    Each vertex's signature is the min of ``xxhash64(neighbor, i, seed)``
    over its neighbors, for ``i = 1..k``; the estimated Jaccard of an edge
    is the fraction of matching signature components — O(k|E|) total.
    """
    nb = g.adjacency().select("src", "dst")
    aggs = [
        F.min(F.xxhash64(F.col("dst"), F.lit(i), F.lit(seed))).alias(f"h{i}")
        for i in range(k_hashes)
    ]
    sig = nb.groupBy("src").agg(*aggs)
    sig_u = sig.select(
        F.col("src").alias("u"), *[F.col(f"h{i}").alias(f"hu{i}") for i in range(k_hashes)]
    )
    sig_v = sig.select(
        F.col("src").alias("v"), *[F.col(f"h{i}").alias(f"hv{i}") for i in range(k_hashes)]
    )
    matches = functools.reduce(
        operator.add,
        [
            F.when(F.col(f"hu{i}") == F.col(f"hv{i}"), 1).otherwise(0)
            for i in range(k_hashes)
        ],
    )
    return (
        g.edges.withColumnRenamed("src", "u").withColumnRenamed("dst", "v")
        .join(sig_u, "u")
        .join(sig_v, "v")
        .withColumn("jaccard", matches.cast("double") / k_hashes)
        .select(F.col("u").alias("src"), F.col("v").alias("dst"), "weight", "jaccard")
    )


def _local_select(g: Graph, scored: DataFrame, k_target: int, label: str) -> Graph:
    """Per-vertex top-``deg**c`` selection by score, ``c`` solved for rate.

    ``scored`` is canonical edges with a ``jaccard`` column. The required
    exponent for each incidence is ``log(rank)/log(deg)`` (rank by score
    descending); an edge's requirement is the min across endpoints; keep
    the ``k_target`` lowest-requirement edges (ties by score desc, id).
    """
    base = scored.select("src", "dst", "weight", "jaccard")
    if g.directed:
        inc = base
    else:
        inc = base.unionByName(
            base.select(
                F.col("dst").alias("src"), F.col("src").alias("dst"),
                "weight", "jaccard",
            )
        )
    w_rank = Window.partitionBy("src").orderBy(F.col("jaccard").desc(), F.col("dst"))
    w_deg = Window.partitionBy("src")
    ranked = (
        inc.withColumn("rank", F.row_number().over(w_rank))
        .withColumn("deg", F.count("*").over(w_deg))
        .withColumn(
            "c_req",
            F.when((F.col("rank") == 1) | (F.col("deg") <= 1), F.lit(0.0)).otherwise(
                F.log(F.col("rank").cast("double"))
                / F.log(F.col("deg").cast("double"))
            ),
        )
    )
    if g.directed:
        edge_req = ranked.select("src", "dst", "weight", "jaccard", "c_req")
    else:
        edge_req = (
            ranked.select(
                F.least("src", "dst").alias("src"),
                F.greatest("src", "dst").alias("dst"),
                "weight", "jaccard", "c_req",
            )
            .groupBy("src", "dst", "weight")
            .agg(F.min("c_req").alias("c_req"), F.max("jaccard").alias("jaccard"))
        )
    edge_req = edge_req.localCheckpoint(eager=True)
    # Like Local Degree, local similarity sparsifiers have a maximum
    # prune rate (§3.2): c=0 still keeps every vertex's top-scored edge.
    floor = edge_req.where(F.col("c_req") <= 0.0).count()
    kept = take_k(
        edge_req, max(k_target, floor),
        [F.col("c_req"), F.col("jaccard").desc(), "src", "dst"],
    )
    return g.with_edges(kept, name=f"{g.name}|{label}")


def g_spar_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """G-Spar: keep the globally highest exact-Jaccard edges."""
    k = target_edges(g.m, rho)
    scored = materialize(edge_scores(g))
    kept = take_k(scored, k, [F.col("jaccard").desc(), "src", "dst"])
    return g.with_edges(kept, name=f"{g.name}|GS@{rho:.2f}")


def scan_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """SCAN: keep the globally highest structural-similarity edges."""
    k = target_edges(g.m, rho)
    scored = materialize(edge_scores(g))
    kept = take_k(scored, k, [F.col("scan").desc(), "src", "dst"])
    return g.with_edges(kept, name=f"{g.name}|SCAN@{rho:.2f}")


def local_similarity_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """Local Similarity: per-vertex log(rank)/log(deg) over exact Jaccard."""
    k = target_edges(g.m, rho)
    scored = materialize(edge_scores(g))
    out = _local_select(g, scored, k, f"LSim@{rho:.2f}")
    return out


def l_spar_sparsify(g: Graph, rho: float, *, seed: int = 0, k_hashes: int = 8) -> Graph:
    """L-Spar: per-vertex top-``deg**c`` by min-wise-hash approx Jaccard.

    The hash family is fixed (not derived from ``seed``): L-Spar is
    deterministic in Table 2 — the same graph always yields the same
    signatures and hence the same sparsified graph.
    """
    k = target_edges(g.m, rho)
    scored = materialize(minhash_jaccard_scores(g, k_hashes=k_hashes, seed=0x5EED))
    return _local_select(g, scored, k, f"LS@{rho:.2f}")
