"""Rank Degree sparsifier (RD, §2.3.3): iterative seed expansion.

Start from random seed vertices; each seed contributes its edges to the
``top_k`` highest-degree neighbors; newly touched vertices become the
next round's seeds. Repeat until the edge budget is met (re-seeding with
fresh random vertices if the frontier dries up; topping up with random
unselected edges if even re-seeding cannot reach the budget, which
happens once every vertex's top-``top_k`` edges are taken).

The rounds are a sequential frontier expansion, so they run on the
driver over the ordered edge list (DESIGN.md §2), as Forest Fire does.
Each vertex's top-``top_k`` incident edges are ranked once, by neighbour
degree descending and then ``dst``; degree is out-degree for directed
graphs, whose edges to heads with out-degree 0 are never candidates.
Every round is then a handful of NumPy index operations, and all draws
come from one ``np.random.default_rng(seed)``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.graph import Graph
from repro.sparsifiers.base import target_edges


def rank_degree_sparsify(
    g: Graph,
    rho: float,
    *,
    seed: int = 0,
    top_k: int = 3,
    seed_fraction: float = 0.05,
    max_iter: int = 60,
) -> Graph:
    """Iterative seed expansion keeping edges to top-degree neighbors."""
    k_target = target_edges(g.m, rho)
    src, dst, wts = g.to_arrays()
    eid = np.arange(len(src))
    # Incidence rows (vertex u, neighbour v, canonical edge id).
    if g.directed:
        u, v, e = src, dst, eid
    else:
        u, v, e = np.concatenate([src, dst]), np.concatenate([dst, src]), np.tile(eid, 2)
    deg = np.bincount(u, minlength=g.n)
    # Heads without out-edges are never candidates (directed graphs only).
    has_out = deg[v] > 0
    u, v, e = u[has_out], v[has_out], e[has_out]
    order = np.lexsort((v, -deg[v], u))
    u, e = u[order], e[order]
    # Row position minus the start of its vertex's run is its 0-based rank.
    top = np.arange(len(u)) - np.searchsorted(u, u) < top_k
    top_u, top_e = u[top], e[top]

    rng = np.random.default_rng(seed)
    frac = min(1.0, max(seed_fraction, 8.0 / max(g.n, 1)))

    def random_seeds() -> np.ndarray:
        return rng.random(g.n) < frac

    selected = np.zeros(len(src), dtype=bool)
    n_selected = 0
    seeds = random_seeds()
    reseeded_dry = False
    for _ in range(max_iter):
        new = np.unique(top_e[seeds[top_u]])
        new = new[~selected[new]]
        if len(new) == 0:
            if reseeded_dry:
                break  # even fresh seeds add nothing: top-k edges saturated
            seeds = random_seeds()
            reseeded_dry = True
            continue
        reseeded_dry = False
        if n_selected + len(new) > k_target:
            new = rng.choice(new, k_target - n_selected, replace=False)
        selected[new] = True
        n_selected += len(new)
        if n_selected >= k_target:
            break
        # Newly reached vertices drive the next round.
        seeds = np.zeros(g.n, dtype=bool)
        seeds[src[new]] = seeds[dst[new]] = True
    if n_selected < k_target:
        rest = np.flatnonzero(~selected)
        selected[rng.choice(rest, min(k_target - n_selected, len(rest)), replace=False)] = True
    pdf = pd.DataFrame({"src": src[selected], "dst": dst[selected], "weight": wts[selected]})
    return Graph.from_pandas(
        g.spark, pdf, directed=g.directed, weighted=g.weighted, n=g.n,
        name=f"{g.name}|RD@{rho:.2f}",
    )
