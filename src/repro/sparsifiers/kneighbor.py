"""K-Neighbor sparsifier (KN, §2.3.2).

Each vertex samples up to ``k`` of its incident edges, with probability
proportional to edge weight (uniform when unweighted); an edge survives
if *either* endpoint sampled it. ``k`` is the integer knob, so prune-rate
control is coarse (Table 2 marks it "subject to constraint"): we pick the
``k`` whose kept-edge count is closest to the target via the cumulative
rank histogram.

Weighted sampling without replacement uses the Efraimidis–Spirakis
exponential-key trick: ordering incident edges by ``-ln(U)/w`` ascending
draws them w-proportionally without replacement.
"""
from __future__ import annotations

from pyspark.sql import functions as F

from repro.core.graph import Graph
from repro.sparsifiers.base import (
    best_int_threshold,
    canonical_min_rank,
    hash_uniform,
    incidence_ranked,
    target_edges,
)


def kneighbor_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """Per-vertex weighted k-edge sampling; k solved for the target rate."""
    k_target = target_edges(g.m, rho)
    # Key ascending == weight-proportional sampling order per vertex. The
    # draw hashes the incidence row's own (src, dst), so the two endpoints
    # of an undirected edge draw independently.
    u = hash_uniform(seed, "src", "dst")
    key = -F.log(u + F.lit(1e-12)) / F.col("weight")
    ranked = incidence_ranked(g.adjacency(), key)
    edge_rank = canonical_min_rank(g, ranked).localCheckpoint(eager=True)
    k = best_int_threshold(edge_rank, k_target)
    kept = edge_rank.where(F.col("rank") <= k).select("src", "dst", "weight")
    return g.with_edges(kept, name=f"{g.name}|KN@{rho:.2f}")
