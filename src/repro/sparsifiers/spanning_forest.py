"""Spanning Forest sparsifier (SF, §2.3.5).

Kruskal's algorithm with union-find over the collected edge list:
deterministic (edges scanned by ascending weight, then (src, dst)), one
spanning tree per connected component, so connectivity is preserved
exactly. The prune rate is not controllable (Table 2: PRC ✗) — the
output always has ``n - #components`` edges.

Union-find is inherently sequential, so this kernel runs on the driver
over the collected canonical edge list (DESIGN.md §2); all reproduction
graphs fit trivially. Undirected-only per Table 2: directed inputs are
symmetrized first (paper §3.1).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.graph import Graph


def _kruskal_forest(src: np.ndarray, dst: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Indices of edges in the min-weight spanning forest."""
    order = np.lexsort((dst, src, w))
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keep = []
    for i in order:
        ru, rv = find(int(src[i])), find(int(dst[i]))
        if ru != rv:
            parent[ru] = rv
            keep.append(i)
    return np.array(keep, dtype=np.int64)


def spanning_forest_sparsify(g: Graph, rho: float = 0.0, *, seed: int = 0) -> Graph:
    """Min-weight spanning forest; ``rho``/``seed`` ignored (deterministic)."""
    gu = g.symmetrized()
    src, dst, w = gu.to_arrays()
    keep = _kruskal_forest(src, dst, w, gu.n)
    pdf = pd.DataFrame({"src": src[keep], "dst": dst[keep], "weight": w[keep]})
    return Graph.from_pandas(
        g.spark, pdf, directed=False, weighted=gu.weighted, n=gu.n,
        name=f"{g.name}|SF",
    )
