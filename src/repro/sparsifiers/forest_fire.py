"""Forest Fire sparsifier (FF, §2.3.7).

Sparsification flavour of the Leskovec forest-fire process (as in
NetworKit): repeatedly pick a random *ambassador* vertex and burn through
the graph — from each burning vertex, a geometrically distributed number
of not-yet-visited neighbors catches fire, and every traversed edge joins
the sparsified graph. Burning restarts with a fresh ambassador until the
edge budget ``(1-rho)|E|`` is met. Non-deterministic; prune-rate control
is direct (stop when the budget is hit).

The burn is a sequential random walk, so it runs on the driver over a
CSR view of the edge list (DESIGN.md §2); directed graphs burn along
out-edges.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.graph import Graph
from repro.sparsifiers.base import target_edges


def forest_fire_sparsify(
    g: Graph, rho: float, *, seed: int = 0, p_burn: float = 0.7, max_restarts: int = 100000
) -> Graph:
    """Burn random fires until ``(1-rho)|E|`` distinct edges are collected."""
    k_target = target_edges(g.m, rho)
    indptr, nbrs, wts = g.to_csr()
    rng = np.random.default_rng(seed)
    picked: dict[tuple[int, int], float] = {}

    def canon(u: int, v: int) -> tuple[int, int]:
        return (u, v) if g.directed or u < v else (v, u)

    restarts = 0
    while len(picked) < k_target and restarts < max_restarts:
        restarts += 1
        ambassador = int(rng.integers(0, g.n))
        frontier = [ambassador]
        visited = {ambassador}
        while frontier and len(picked) < k_target:
            v = frontier.pop()
            lo, hi = indptr[v], indptr[v + 1]
            cands = [
                (int(nbrs[j]), float(wts[j]))
                for j in range(lo, hi)
                if int(nbrs[j]) not in visited
            ]
            if not cands:
                continue
            # Geometric burn count: at least one, mean 1/(1-p) (Leskovec's
            # model has mean p/(1-p) and may burn none).
            n_burn = min(int(rng.geometric(1.0 - p_burn)), len(cands))
            rng.shuffle(cands)
            for u, w in cands[:n_burn]:
                picked[canon(v, u)] = w
                visited.add(u)
                frontier.append(u)
    pdf = pd.DataFrame(
        {
            "src": [e[0] for e in picked],
            "dst": [e[1] for e in picked],
            "weight": list(picked.values()),
        }
    )
    return Graph.from_pandas(
        g.spark, pdf, directed=g.directed, weighted=g.weighted, n=g.n,
        name=f"{g.name}|FF@{rho:.2f}",
    )
