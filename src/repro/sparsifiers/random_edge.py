"""Random sparsifier (RN, §2.3.1): uniform edge sampling.

Samples exactly ``(1-rho)|E|`` edges with equal probability — the naive
baseline every figure in the paper includes. Preserves relative
(distribution/ranking) properties; ignores connectivity.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.sparsifiers.base import hash_uniform, take_k, target_edges


def random_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """Keep a uniform random subset of exactly ``(1-rho)|E|`` edges."""
    k = target_edges(g.m, rho)
    picked = take_k(
        g.edges.withColumn("_r", hash_uniform(seed, "src", "dst")),
        k,
        [F.col("_r"), "src", "dst"],
    )
    return g.with_edges(picked, name=f"{g.name}|RN@{rho:.2f}")
