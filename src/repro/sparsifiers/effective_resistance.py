"""Effective Resistance sparsifier (ER, §2.3.9), Spielman–Srivastava.

Treat the graph as a resistor network; an edge's effective resistance
``R_e = (e_u - e_v)^T L^+ (e_u - e_v)`` measures how non-redundant it is.
Sample ``q`` edges *with replacement* with probability ``p_e ∝ w_e R_e``
and reweight each kept edge to ``w_e * count_e / (q p_e)`` — this is the
estimator whose Laplacian quadratic form concentrates within (1±ε) of
the original (the property Figure 3 tests). Two variants per §3.2:

* **ER-weighted** — keeps the reweighted edges (the only sparsifier in
  the study that changes weights);
* **ER-unweighted** — same sampled edge set, weights reset to the
  original (sampling still w·R-proportional).

Exact resistances come from a dense Laplacian pseudo-inverse on the
driver (NumPy) — exact at reproduction scale, replacing the paper's
Laplacians.jl solver (DESIGN.md §2). ``q`` is solved by bisection on the
expected number of *distinct* sampled edges so the prune rate is met in
expectation. Undirected-only per Table 2: directed inputs are
symmetrized first (paper Fig. 11a does the same).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.graph import Graph
from repro.sparsifiers.base import target_edges

_MAX_DENSE_N = 6000


def effective_resistances(src: np.ndarray, dst: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Exact effective resistance of each edge of an undirected edge list
    on vertices ``0..n-1`` (each edge once), via Laplacian pseudo-inverse."""
    if n > _MAX_DENSE_N:
        raise ValueError(f"dense ER solver capped at n={_MAX_DENSE_N}; got {n}")
    L = np.zeros((n, n))
    L[src, dst] -= w
    L[dst, src] -= w
    np.add.at(L, (src, src), w)
    np.add.at(L, (dst, dst), w)
    Lp = np.linalg.pinv(L, hermitian=True)
    return Lp[src, src] + Lp[dst, dst] - 2.0 * Lp[src, dst]


def _solve_q(p: np.ndarray, k_target: int) -> int:
    """Smallest q with E[#distinct sampled edges] >= k_target."""
    lo, hi = 1, 1
    def expected(q: int) -> float:
        return float(np.sum(1.0 - np.exp(q * np.log1p(-np.minimum(p, 1 - 1e-12)))))
    while expected(hi) < k_target and hi < 1 << 30:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if expected(mid) >= k_target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def er_sparsify(
    g: Graph, rho: float, *, seed: int = 0, reweight: bool = True
) -> Graph:
    """Sample edges ∝ w·R with replacement; reweight iff ``reweight``."""
    gu = g.symmetrized()
    src, dst, w = gu.to_arrays()
    R = effective_resistances(src, dst, w, gu.n)
    k_target = target_edges(len(src), rho)
    scores = np.maximum(w * R, 1e-18)
    p = scores / scores.sum()
    q = _solve_q(p, k_target)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(q, p)
    kept = counts > 0
    if reweight:
        new_w = w[kept] * counts[kept] / (q * p[kept])
    else:
        new_w = w[kept]
    pdf = pd.DataFrame({"src": src[kept], "dst": dst[kept], "weight": new_w})
    tag = "ERw" if reweight else "ERu"
    return Graph.from_pandas(
        g.spark, pdf, directed=False, weighted=reweight or gu.weighted, n=gu.n,
        name=f"{g.name}|{tag}@{rho:.2f}",
    )


def er_weighted_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """ER-weighted: quadratic-form-preserving reweighted sample."""
    return er_sparsify(g, rho, seed=seed, reweight=True)


def er_unweighted_sparsify(g: Graph, rho: float, *, seed: int = 0) -> Graph:
    """ER-unweighted: same sampling, original weights kept."""
    return er_sparsify(g, rho, seed=seed, reweight=False)
