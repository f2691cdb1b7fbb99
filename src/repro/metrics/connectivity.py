"""Graph connectivity metrics (§3.3.1): components, unreachable ratio,
isolated ratio.

Connected components use hash-min label propagation: every vertex starts
with its own id and repeatedly takes the minimum label over itself and
its neighbors until no label changes — O(diameter) DataFrame rounds.
Directed graphs are treated weakly (symmetrized adjacency), which is
what the paper's pair-unreachable statistic needs for its undirected
evaluation graphs; directed reachability questions in this repo go
through :mod:`repro.metrics.paths` instead.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.core.iterate import loop, materialize


def connected_components(g: Graph, *, max_iter: int = 64) -> DataFrame:
    """DataFrame[v, comp] of weakly connected component labels (min id)."""
    adj = materialize(
        g.symmetrized().adjacency().select("src", "dst")
    )
    state = g.vertices().withColumn("comp", F.col("v"))

    def step(labels: DataFrame, i: int) -> DataFrame:
        nbr = adj.join(labels.withColumnRenamed("v", "dst"), "dst").select(
            F.col("src").alias("v"), "comp"
        )
        return nbr.unionByName(labels).groupBy("v").agg(F.min("comp").alias("comp"))

    return loop(state, step, max_iter=max_iter, until_stable="comp")


def component_sizes(g: Graph) -> DataFrame:
    """DataFrame[comp, size], one row per weak component."""
    return connected_components(g).groupBy("comp").agg(F.count("*").alias("size"))


def num_components(g: Graph) -> int:
    return component_sizes(g).count()


def is_connected(g: Graph) -> bool:
    return num_components(g) == 1


def unreachable_ratio(g: Graph) -> float:
    """Fraction of vertex pairs with no (undirected) path between them.

    Exact closed form from component sizes: reachable pairs are
    ``sum(size_i choose 2)`` over components, out of ``n choose 2``.
    """
    sizes = component_sizes(g).toPandas()["size"].to_numpy()
    n = g.n
    if n < 2:
        return 0.0
    reachable = float((sizes * (sizes - 1) // 2).sum())
    total = n * (n - 1) / 2.0
    return 1.0 - reachable / total


def isolated_ratio(g: Graph) -> float:
    """Fraction of vertices with no incident edge.

    Sparsifiers keep the full vertex set (Definition 1), so vertices that
    lost all edges count as isolated.
    """
    used = (
        g.edges.select(F.col("src").alias("v"))
        .unionByName(g.edges.select(F.col("dst").alias("v")))
        .distinct()
        .count()
    )
    return 1.0 - used / g.n if g.n else 0.0
