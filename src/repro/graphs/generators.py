"""Seeded NumPy edge-list generators for the synthetic dataset stand-ins.

The paper evaluates on 14 real-world graphs (SNAP/SuiteSparse/OGB). This
container is offline, so each paper dataset is replaced by a generator
reproducing its *structural class* (see DESIGN.md §2):

* :func:`erdos_renyi` — dense uniform graphs (human_gene2 stand-in).
* :func:`barabasi_albert` — power-law social graphs (ego-Facebook).
* :func:`holme_kim` — power-law + triadic closure (collaboration nets).
* :func:`sbm` — planted-partition community graphs (com-DBLP/Amazon,
  Reddit, ogbn-proteins) with ground-truth labels.
* :func:`rmat` — scale-free directed web graphs (web-*).
* :func:`powerlaw_directed` — zipf in/out-degree digraph (ego-Twitter).

All generators return a pandas edge list with columns ``src, dst`` (plus
``weight`` when weighted); duplicates and self-loops may be present and
are folded by :meth:`repro.core.graph.Graph.from_pandas`.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _edges_df(src: np.ndarray, dst: np.ndarray, weight: np.ndarray | None = None) -> pd.DataFrame:
    d = {"src": src.astype(np.int64), "dst": dst.astype(np.int64)}
    if weight is not None:
        d["weight"] = weight.astype(np.float64)
    return pd.DataFrame(d)


def erdos_renyi(n: int, m: int, *, seed: int = 0, weighted: bool = False) -> pd.DataFrame:
    """G(n, m): ``m`` uniform random distinct pairs (undirected).

    Sampled by drawing pair indices without replacement from the
    ``n*(n-1)/2`` canonical pairs, so the edge count is exact.
    """
    g = _rng(seed)
    total = n * (n - 1) // 2
    m = min(m, total)
    idx = g.choice(total, size=m, replace=False)
    # Decode linear index into (u, v), u < v: row u owns n-1-u consecutive
    # indices starting at row_start[u].
    row_start = np.concatenate(
        [[0], np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64))]
    )
    u = (np.searchsorted(row_start, idx, side="right") - 1).astype(np.int64)
    v = (u + 1 + (idx - row_start[u])).astype(np.int64)
    w = g.uniform(0.1, 1.0, m) if weighted else None
    return _edges_df(u, v, w)


def barabasi_albert(n: int, m_attach: int, *, seed: int = 0) -> pd.DataFrame:
    """Preferential attachment: each new vertex attaches ``m_attach`` edges.

    Uses the repeated-endpoint urn so attachment probability is
    proportional to degree. Produces a connected power-law graph.
    """
    g = _rng(seed)
    src_list: list[int] = []
    dst_list: list[int] = []
    # Urn of endpoints; start from a small clique of m_attach + 1 vertices.
    urn: list[int] = []
    for u in range(m_attach + 1):
        for v in range(u + 1, m_attach + 1):
            src_list.append(u)
            dst_list.append(v)
            urn.extend((u, v))
    for v in range(m_attach + 1, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(urn[g.integers(0, len(urn))])
        for t in targets:
            src_list.append(t)
            dst_list.append(v)
            urn.extend((t, v))
    return _edges_df(np.array(src_list), np.array(dst_list))


def holme_kim(n: int, m_attach: int, p_triad: float, *, seed: int = 0) -> pd.DataFrame:
    """Power-law graph with tunable clustering (Holme–Kim model).

    Like Barabási–Albert, but after each preferential attachment step a
    triad-formation step connects the new vertex to a random neighbor of
    the previously chosen target with probability ``p_triad`` — yielding
    the high clustering coefficients of collaboration networks.
    """
    g = _rng(seed)
    src_list: list[int] = []
    dst_list: list[int] = []
    urn: list[int] = []
    neighbors: list[set[int]] = [set() for _ in range(n)]

    def add_edge(u: int, v: int) -> None:
        src_list.append(u)
        dst_list.append(v)
        urn.extend((u, v))
        neighbors[u].add(v)
        neighbors[v].add(u)

    for u in range(m_attach + 1):
        for v in range(u + 1, m_attach + 1):
            add_edge(u, v)
    for v in range(m_attach + 1, n):
        chosen: set[int] = set()
        prev_target = -1
        while len(chosen) < m_attach:
            if (
                prev_target >= 0
                and g.random() < p_triad
                and (cands := list(neighbors[prev_target] - chosen - {v}))
            ):
                t = cands[g.integers(0, len(cands))]
            else:
                t = urn[g.integers(0, len(urn))]
                if t == v or t in chosen:
                    continue
            chosen.add(t)
            add_edge(t, v)
            prev_target = t
    return _edges_df(np.array(src_list), np.array(dst_list))


def sbm(
    n: int,
    k: int,
    *,
    avg_deg_in: float,
    avg_deg_out: float,
    seed: int = 0,
    weighted: bool = False,
    theta_exponent: float = 0.0,
) -> tuple[pd.DataFrame, np.ndarray]:
    """Planted-partition (stochastic block model) graph with labels.

    ``k`` equal-size communities; each vertex gets ``avg_deg_in`` expected
    intra-community and ``avg_deg_out`` expected inter-community edges.
    ``theta_exponent > 0`` makes it *degree-corrected*: per-vertex
    propensities drawn Pareto(theta_exponent), giving the heavy-tailed
    degree distribution of real community graphs (Reddit, ogbn-proteins)
    while keeping the planted partition. Returns ``(edges, labels)``;
    ``labels[v]`` is the ground-truth community used by the GNN stand-ins.
    """
    g = _rng(seed)
    labels = np.repeat(np.arange(k), int(np.ceil(n / k)))[:n]
    g.shuffle(labels)
    if theta_exponent > 0:
        theta = 1.0 + g.pareto(theta_exponent, n)
    else:
        theta = np.ones(n)
    p_global = theta / theta.sum()
    m_in = int(n * avg_deg_in / 2)
    m_out = int(n * avg_deg_out / 2)
    # Intra-community edges: endpoint by propensity, partner by propensity
    # within the same community (oversample to survive dedup folds).
    by_comm = [np.flatnonzero(labels == c) for c in range(k)]
    p_comm = [theta[idx] / theta[idx].sum() for idx in by_comm]
    u_in = g.choice(n, size=int(m_in * 1.3) + 8, p=p_global)
    v_in = np.array(
        [by_comm[labels[u]][g.choice(len(by_comm[labels[u]]), p=p_comm[labels[u]])] for u in u_in]
    )
    u_out = g.choice(n, size=int(m_out * 1.3) + 8, p=p_global)
    v_out = g.choice(n, size=int(m_out * 1.3) + 8, p=p_global)
    keep = labels[u_out] != labels[v_out]
    u = np.concatenate([u_in[:m_in], u_out[keep][:m_out]])
    v = np.concatenate([v_in[:m_in], v_out[keep][:m_out]])
    w = g.uniform(0.1, 1.0, len(u)) if weighted else None
    return _edges_df(u, v, w), labels


def rmat(
    scale: int,
    m: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> pd.DataFrame:
    """R-MAT recursive-matrix digraph (web-graph stand-in).

    ``2**scale`` vertices; each of ``m`` edges picks its (src, dst) bits
    by recursively descending the 2x2 partition with probabilities
    (a, b, c, d=1-a-b-c) — the classic skewed, locality-heavy web shape.
    """
    g = _rng(seed)
    d = 1.0 - a - b - c
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    probs = np.array([a, b, c, d])
    cum = np.cumsum(probs)
    for bit in range(scale):
        r = g.random(m)
        quad = np.searchsorted(cum, r)
        src = (src << 1) | (quad >> 1)
        dst = (dst << 1) | (quad & 1)
    return _edges_df(src, dst)


def powerlaw_directed(
    n: int, m: int, *, alpha_out: float = 1.7, alpha_in: float = 1.4, seed: int = 0
) -> pd.DataFrame:
    """Directed graph with zipfian out- and in-degree (ego-Twitter-like)."""
    g = _rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p_out = ranks**-alpha_out
    p_out /= p_out.sum()
    p_in = ranks**-alpha_in
    p_in /= p_in.sum()
    perm_out = g.permutation(n)
    perm_in = g.permutation(n)
    src = perm_out[g.choice(n, size=m, p=p_out)]
    dst = perm_in[g.choice(n, size=m, p=p_in)]
    return _edges_df(src, dst)


def connect_components(edges: pd.DataFrame, n: int, *, seed: int = 0) -> pd.DataFrame:
    """Add one chain edge per extra component so the graph is connected.

    Used for stand-ins of datasets the paper marks *Connected* (Table 3).
    Union-find over the (treated-as-undirected) edge list on the driver.
    """
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(edges["src"].to_numpy(), edges["dst"].to_numpy()):
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    roots = sorted({find(v) for v in range(n)})
    if len(roots) <= 1:
        return edges
    g = _rng(seed)
    extra = pd.DataFrame({"src": roots[:-1], "dst": roots[1:]})
    if "weight" in edges.columns:
        extra["weight"] = g.uniform(0.1, 1.0, len(extra))
    return pd.concat([edges, extra], ignore_index=True)
