"""Local Degree sparsifier (LD, §2.3.4), deterministic.

For each vertex ``v``, keep edges to the top ``deg(v)**alpha`` neighbors
ranked by neighbor degree descending, with ``alpha`` solved for the
target prune rate by :func:`repro.sparsifiers.base.top_degree_power`.
Rank-1 edges need ``alpha = 0``, so every vertex keeps at least one
edge — the connectivity property the paper highlights.
"""
from __future__ import annotations

from repro.core.graph import Graph
from repro.sparsifiers.base import target_edges, top_degree_power


def local_degree_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """Deterministic top-``deg**alpha`` neighbor selection, alpha solved."""
    deg_of_dst = (
        g.degrees(include_zero=False)
        .withColumnRenamed("v", "dst")
        .withColumnRenamed("degree", "pref")
    )
    inc = g.adjacency().join(deg_of_dst, "dst").select("src", "dst", "weight", "pref")
    kept = top_degree_power(g, inc, target_edges(g.m, rho))
    return g.with_edges(kept, name=f"{g.name}|LD@{rho:.2f}")
